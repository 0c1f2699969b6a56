package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
)

// Repro is a self-contained, replayable reproducer: the program source,
// the entry point, concrete inputs, and the configuration(s) under
// which the oracle matrix diverged. Divergences found by cmd/pbfuzz are
// minimized into this form and written under testdata/fuzz/pbdiff; the
// difftest regression test replays every committed file and demands the
// oracle now passes.
type Repro struct {
	Case    string              `json:"case"`
	Family  string              `json:"family"`
	Main    string              `json:"main"`
	TArgs   []int64             `json:"targs,omitempty"`
	N       int                 `json:"n"`
	Src     string              `json:"src"`
	Configs []string            `json:"configs"` // serialized choice.Config texts
	Inputs  map[string]ReproMat `json:"inputs"`
	Axis    string              `json:"axis,omitempty"`
	Detail  string              `json:"detail,omitempty"`

	// WantRunErr is gen.Case.WantRunErr for programs that must fail at
	// run time, identically on every axis.
	WantRunErr string `json:"want_run_err,omitempty"`
}

// ReproMat is a matrix in storage (row-major) order.
type ReproMat struct {
	Dims []int     `json:"dims"`
	Data []float64 `json:"data"`
}

// WriteRepro writes a reproducer as indented JSON.
func WriteRepro(path string, r *Repro) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads a reproducer file.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Repro{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("difftest: %s: %w", path, err)
	}
	return r, nil
}

// Replay runs a reproducer through the oracle matrix and returns the
// first remaining divergence, or nil when all axes and configs agree —
// i.e. the bug it recorded is fixed.
func (h *Harness) Replay(r *Repro) (*Divergence, error) {
	s, err := h.newSubject(r.Src, r.Main, r.TArgs)
	if err != nil {
		return nil, fmt.Errorf("difftest: replay %s: %w", r.Case, err)
	}
	s.wantRunErr = r.WantRunErr
	inputs := map[string]*matrix.Matrix{}
	for name, rm := range r.Inputs {
		m := matrix.New(rm.Dims...)
		if len(rm.Data) != m.Count() {
			return nil, fmt.Errorf("difftest: replay %s: input %s has %d values for shape %v", r.Case, name, len(rm.Data), rm.Dims)
		}
		copy(m.Data(), rm.Data)
		inputs[name] = m
	}
	var cfgs []*choice.Config
	for _, text := range r.Configs {
		cfg, err := choice.Read(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("difftest: replay %s: bad config: %w", r.Case, err)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		cfgs = []*choice.Config{choice.NewConfig()}
	}
	divs, _ := h.checkPoint(s, inputs, cfgs)
	if len(divs) == 0 {
		return nil, nil
	}
	d := divs[0]
	d.Case, d.Family, d.N = r.Case, r.Family, r.N
	return d, nil
}

// ReplayDir replays every .json reproducer in a directory (sorted, for
// deterministic output) and returns the divergences keyed by file name.
func (h *Harness) ReplayDir(dir string) (map[string]*Divergence, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	out := map[string]*Divergence{}
	for _, p := range paths {
		r, err := LoadRepro(p)
		if err != nil {
			return nil, nil, err
		}
		d, err := h.Replay(r)
		if err != nil {
			return nil, nil, err
		}
		if d != nil {
			out[filepath.Base(p)] = d
		}
	}
	return out, paths, nil
}
