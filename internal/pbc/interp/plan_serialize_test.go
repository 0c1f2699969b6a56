package interp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// planPayloads returns every persisted plan descriptor payload in the
// store opened on dir, read from its pack file at the listed offset.
func planPayloads(t *testing.T, store *artifact.Store, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, e := range store.List() {
		if e.Kind != artifact.KindPlan {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Pack))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw[e.Offset:e.Offset+e.Size])
	}
	return out
}

// runPlanned executes one transform on an engine wired with a pool (so
// the plan layer is on the path) and the given store.
func runPlanned(t *testing.T, src, main string, n int64, pool *runtime.Pool, store *artifact.Store, cfg *choice.Config) map[string]*matrix.Matrix {
	t.Helper()
	e := engine(t, src)
	e.UseArtifacts(store)
	e.Pool = pool
	inputs, err := e.GenerateInputs(main, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	view := e.WithConfig(cfg)
	view.Pool = pool
	outs, err := view.Run(main, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// builtPlan builds tc's plan directly, with the analysis it runs under.
func builtPlan(t testing.TB, tc planCase) (*plan, *analysis.Result) {
	t.Helper()
	e := engine(t, tc.src)
	e.Cfg = tc.cfg()
	ex := execFor(t, e, tc.main, tc.size)
	p := ex.buildPlan()
	if p == nil {
		t.Fatalf("buildPlan declined %s", tc.name)
	}
	return p, ex.res
}

// samePlan reports whether two plans have deep-equal tasks and CSR
// graphs.
func samePlan(a, b *plan) bool {
	return reflect.DeepEqual(a.tasks, b.tasks) && reflect.DeepEqual(*a.graph, *b.graph)
}

// TestPlanDescriptorRoundTrip proves the disk image is faithful: a
// built plan survives encode and decode deep-equal, tasks and CSR both,
// and a planned run persists exactly that plan for its transform.
func TestPlanDescriptorRoundTrip(t *testing.T) {
	for _, tc := range planCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, res := builtPlan(t, tc)
			payload, err := encodePlan(p)
			if err != nil {
				t.Fatal(err)
			}
			q, err := decodePlan(payload, res)
			if err != nil {
				t.Fatal(err)
			}
			if !samePlan(p, q) {
				t.Fatal("plan does not survive an encode/decode round trip")
			}

			pool := runtime.NewPool(2)
			defer pool.Close()
			dir := t.TempDir()
			store, err := artifact.Open(dir, artifact.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runPlanned(t, tc.src, tc.main, tc.size, pool, store, tc.cfg())
			found := false
			for _, payload := range planPayloads(t, store, dir) {
				// Plans of sub-transforms are checked against their own
				// analysis, not main's, and may fail to load here.
				if q, err := decodePlan(payload, res); err == nil && samePlan(p, q) {
					found = true
				}
			}
			if !found {
				t.Fatal("no persisted plan matches the plan built for the main transform")
			}
		})
	}
}

// TestPlanWarmStartFromDisk is the plan tier's restart story: a fresh
// engine over a reopened store must serve bit-identical outputs with
// zero plan constructions — every plan rehydrated from its persisted
// descriptor.
func TestPlanWarmStartFromDisk(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	dir := t.TempDir()

	store1, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldBefore := PlanStats()
	want := runPlanned(t, parser.SummedAreaSrc, "SummedArea", 32, pool, store1, choice.NewConfig())
	coldDelta := PlanStats().Builds - coldBefore.Builds
	if coldDelta == 0 {
		t.Fatal("cold run constructed no plans; nothing to warm-start from")
	}
	if len(planPayloads(t, store1, dir)) == 0 {
		t.Fatal("cold run persisted no plan descriptors")
	}

	store2, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmBefore := PlanStats()
	got := runPlanned(t, parser.SummedAreaSrc, "SummedArea", 32, pool, store2, choice.NewConfig())
	warmAfter := PlanStats()

	for name, m := range want {
		if !m.Equal(got[name]) {
			t.Fatalf("warm output %s differs from cold (max |Δ| %g)", name, m.MaxAbsDiff(got[name]))
		}
	}
	if warm := warmAfter.WarmLoads - warmBefore.WarmLoads; warm == 0 {
		t.Error("warm run rehydrated no plans")
	}
	if built := warmAfter.Builds - warmBefore.Builds; built != 0 {
		t.Errorf("warm run constructed %d plans, want 0", built)
	}
	if store2.DiskMisses() != 0 {
		t.Errorf("warm run recorded %d disk misses, want 0", store2.DiskMisses())
	}
}

// loadPlan runs decodePlan, turning a panic into a test failure: a
// damaged plan must be an error, never a crash.
func loadPlan(t *testing.T, payload []byte, res *analysis.Result) (p *plan, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("loading the plan panicked: %v", r)
		}
	}()
	return decodePlan(payload, res)
}

// TestPlanDescriptorValidateRejects feeds the loader every class of
// inconsistency a hostile or damaged plan image could carry. Nothing
// here may reach the run arena: each perturbation must yield an error.
func TestPlanDescriptorValidateRejects(t *testing.T) {
	cfg := choice.NewConfig()
	cfg.SetInt(ParGrainKey, 8)
	p, res := builtPlan(t, planCase{"SummedArea", parser.SummedAreaSrc, "SummedArea", 32, func() *choice.Config { return cfg }})
	if len(p.graph.Succs) == 0 {
		t.Fatal("plan has no edges to perturb")
	}
	base, err := encodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// image decodes a fresh copy of base as the disk tier stores it.
	image := func() *planImage {
		var img planImage
		if err := gob.NewDecoder(bytes.NewReader(base)).Decode(&img); err != nil {
			t.Fatal(err)
		}
		return &img
	}
	tileIdx, lexIdx := -1, -1
	for i, pt := range p.tasks {
		if pt.Kind == planTile && tileIdx < 0 {
			tileIdx = i
		}
		if pt.Kind == planTile && len(pt.Lex) > 0 && lexIdx < 0 {
			lexIdx = i
		}
	}
	if tileIdx < 0 {
		t.Fatal("plan has no tile task to perturb")
	}
	cases := []struct {
		name    string
		mutate  func(d *planImage)
		skip    bool
		wantSub string
	}{
		{"succ_out_of_range", func(d *planImage) { d.To[0] = int32(len(d.Tasks)) }, false, "out of range"},
		{"pred_negative", func(d *planImage) { d.From[0] = -1 }, false, "out of range"},
		{"edge_ends_mismatch", func(d *planImage) { d.To = d.To[:len(d.To)-1] }, false, "targets"},
		{"self_edge", func(d *planImage) { d.To[0] = d.From[0] }, false, "itself"},
		{"step_out_of_range", func(d *planImage) {
			d.Tasks[0] = planTask{Kind: planStep, Step: int32(len(res.Schedule))}
		}, false, "schedule index"},
		{"node_out_of_range", func(d *planImage) {
			d.Tasks[tileIdx].Node = int32(len(res.Graph.Nodes))
		}, false, "node"},
		{"unknown_rule", func(d *planImage) { d.Tasks[tileIdx].Rule = 9999 }, false, "no rule"},
		{"bounds_rank_mismatch", func(d *planImage) {
			d.Tasks[tileIdx].Bounds = d.Tasks[tileIdx].Bounds[:len(d.Tasks[tileIdx].Bounds)-1]
		}, false, "rank"},
		{"unknown_kind", func(d *planImage) { d.Tasks[0].Kind = 77 }, false, "unknown task kind"},
		{"lex_dim_out_of_range", func(d *planImage) {
			d.Tasks[lexIdx].Lex[0].Dim = len(d.Tasks[lexIdx].Bounds)
		}, lexIdx < 0, "lex dimension"},
		{"lex_dir_zero", func(d *planImage) {
			d.Tasks[lexIdx].Lex[0].Dir = 0
		}, lexIdx < 0, "lex direction"},
		{"cycle", func(d *planImage) {
			*d = planImage{Tasks: []planTask{{Kind: planFence}, {Kind: planFence}}, From: []int32{0, 1}, To: []int32{1, 0}}
		}, false, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("shape not present in this plan")
			}
			d := image()
			tc.mutate(d)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(d); err != nil {
				t.Fatal(err)
			}
			_, err := loadPlan(t, buf.Bytes(), res)
			if err == nil {
				t.Fatal("perturbed plan loaded")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzDecodePlan feeds arbitrary bytes to the plan loader, against the
// analysis of one of the plan corpus's transforms. A load must never
// panic: it either fails with an error or yields a plan that encodes
// and loads again, deep-equal. Seeds: the encoded plan of every corpus
// case at n = 8, against its own analysis. The small size keeps seeds
// under a kilobyte: the fuzzer minimizes each new input, which takes
// tens of seconds on one the size of a full corpus plan.
func FuzzDecodePlan(f *testing.F) {
	var analyses []*analysis.Result
	for i, tc := range planCases() {
		tc.size = 8
		p, res := builtPlan(f, tc)
		payload, err := encodePlan(p)
		if err != nil {
			f.Fatal(err)
		}
		analyses = append(analyses, res)
		f.Add(uint8(i), payload)
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		res := analyses[int(which)%len(analyses)]
		p, err := decodePlan(data, res)
		if err != nil {
			return
		}
		again, err := encodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := decodePlan(again, res)
		if err != nil {
			t.Fatalf("accepted plan does not load again: %v", err)
		}
		if !samePlan(p, q) {
			t.Fatal("accepted plan does not survive a second round trip")
		}
	})
}

// TestPlanCorruptionSweep is the property harness of the warm-plan
// axis at full strength: the persisted plan descriptors inside their
// packs are damaged by a truncation sweep and a bit-flip sweep, and
// every variant must produce a typed rejection plus a rebuild whose
// outputs are bit-identical to the cold run. A wrong schedule —
// silently serving the damaged descriptor — is the one outcome that
// must never happen.
func TestPlanCorruptionSweep(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	srcDir := t.TempDir()
	store, err := artifact.Open(srcDir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := runPlanned(t, parser.SummedAreaSrc, "SummedArea", 32, pool, store, choice.NewConfig())
	// The plan entries, by the pack holding them.
	plans := map[string][]artifact.EntryInfo{}
	for _, e := range store.List() {
		if e.Kind == artifact.KindPlan {
			plans[e.Pack] = append(plans[e.Pack], e)
		}
	}
	if len(plans) == 0 {
		t.Fatal("no plan descriptors persisted")
	}

	// copyDir clones the artifact directory so each variant starts from
	// the pristine cold state.
	copyDir := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			raw, err := os.ReadFile(filepath.Join(srcDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, de.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}

	// checkVariant damages every pack holding plan entries with mutate,
	// which sees the pack's bytes and its plan entries.
	checkVariant := func(t *testing.T, mutate func(raw []byte, plans []artifact.EntryInfo) []byte) {
		t.Helper()
		dir := copyDir(t)
		for name, es := range plans {
			path := filepath.Join(dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw, es), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := PlanStats()
		got := runPlanned(t, parser.SummedAreaSrc, "SummedArea", 32, pool, s, choice.NewConfig())
		after := PlanStats()
		for name, m := range want {
			if !m.Equal(got[name]) {
				t.Fatalf("output %s differs after corruption (max |Δ| %g) — damaged descriptor reached execution",
					name, m.MaxAbsDiff(got[name]))
			}
		}
		if s.CorruptCount() == 0 {
			t.Error("corrupted plan descriptor was not rejected")
		}
		if after.Builds == before.Builds {
			t.Error("no plan was rebuilt after the rejection")
		}
	}

	// Truncations cut the pack inside its first plan entry.
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		t.Run(fmt.Sprintf("truncate_%g", frac), func(t *testing.T) {
			checkVariant(t, func(raw []byte, es []artifact.EntryInfo) []byte {
				return raw[:es[0].Offset+int64(float64(es[0].Size)*frac)]
			})
		})
	}
	t.Run("truncate_last_byte", func(t *testing.T) {
		checkVariant(t, func(raw []byte, es []artifact.EntryInfo) []byte {
			return raw[:es[0].Offset+es[0].Size-1]
		})
	})
	// Bit flips land inside every plan entry.
	for _, pos := range []float64{0.02, 0.3, 0.6, 0.98} {
		t.Run(fmt.Sprintf("bitflip_%g", pos), func(t *testing.T) {
			checkVariant(t, func(raw []byte, es []artifact.EntryInfo) []byte {
				mut := append([]byte(nil), raw...)
				for _, e := range es {
					mut[e.Offset+int64(float64(e.Size-1)*pos)] ^= 1 << 3
				}
				return mut
			})
		})
	}
}
