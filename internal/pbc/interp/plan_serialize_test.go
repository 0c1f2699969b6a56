package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// planPayloads returns every persisted plan descriptor payload in the
// store, read from its pack file at the listed offset.
func planPayloads(t *testing.T, store *artifact.Store) [][]byte {
	t.Helper()
	var out [][]byte
	for _, e := range store.List() {
		if e.Kind != artifact.KindPlan {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(store.Dir(), e.Pack))
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

// TestPlanDescriptorRoundTrip proves the descriptor is a faithful
// pure-data image of a built plan: the persisted payload decodes,
// validates, survives a re-encode bit-for-bit structurally, and
// rehydrates against the live analysis with every binding landing on
// the stable-index target it was derived from.
func TestPlanDescriptorRoundTrip(t *testing.T) {
	for _, tc := range planCases() {
		t.Run(tc.name, func(t *testing.T) {
			pool := runtime.NewPool(2)
			defer pool.Close()
			dir := t.TempDir()
			store, err := artifact.Open(dir, artifact.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runPlanned(t, tc.src, tc.main, tc.size, pool, store, tc.cfg())
			payloads := planPayloads(t, store)
			if len(payloads) == 0 {
				t.Fatal("planned run persisted no plan descriptors")
			}
			e := engine(t, tc.src)
			res, ok := e.Analysis(tc.main)
			if !ok {
				t.Fatalf("no analysis for %s", tc.main)
			}
			checked := 0
			for _, payload := range payloads {
				d, err := DecodePlan(payload)
				if err != nil {
					t.Fatal(err)
				}
				// Plans of sub-transforms validate against their own
				// analysis, not main's; check only main's descriptors
				// structurally here (the warm-start tests execute all).
				if err := d.Validate(res); err != nil {
					continue
				}
				checked++
				re, err := EncodePlan(d)
				if err != nil {
					t.Fatal(err)
				}
				d2, err := DecodePlan(re)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(d, d2) {
					t.Fatal("descriptor does not survive an encode/decode round trip")
				}
				p, err := d.rehydrate(res)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.tasks) != len(d.Tasks) {
					t.Fatalf("rehydrated %d tasks from %d descriptors", len(p.tasks), len(d.Tasks))
				}
				for i, td := range d.Tasks {
					pt := &p.tasks[i]
					switch td.Kind {
					case PlanTaskStep:
						if pt.step != res.Schedule[td.Step] {
							t.Fatalf("task %d rebound to the wrong schedule step", i)
						}
					case PlanTaskTile:
						if pt.node != res.Graph.Nodes[td.Node] {
							t.Fatalf("task %d rebound to the wrong node", i)
						}
						if pt.ri == nil || pt.ri.Rule.Index != int(td.Rule) {
							t.Fatalf("task %d rebound to the wrong rule", i)
						}
					}
				}
				g := p.graph
				if !reflect.DeepEqual(g.SuccOff, d.SuccOff) || !reflect.DeepEqual(g.Succs, d.Succs) || !reflect.DeepEqual(g.InitDeps, d.InitDeps) {
					t.Fatal("rehydrated task graph differs from the descriptor CSR")
				}
			}
			if checked == 0 {
				t.Fatal("no persisted descriptor validated against the main transform's analysis")
			}
		})
	}
}

// TestPlanWarmStartFromDisk is the plan tier's restart story: a fresh
// engine over a reopened store must serve bit-identical outputs with
// zero plan constructions — every plan rehydrated from its persisted
// descriptor. This is the in-process twin of coldwarm_smoke.sh's
// post-reboot assertion.
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
	if len(planPayloads(t, store1)) == 0 {
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

// TestPlanDescriptorValidateRejects feeds Validate every class of
// inconsistency a hostile or damaged descriptor could carry. Nothing
// here may reach the run arena: each perturbation must yield an error.
func TestPlanDescriptorValidateRejects(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := choice.NewConfig()
	cfg.SetInt(ParGrainKey, 8)
	runPlanned(t, parser.SummedAreaSrc, "SummedArea", 32, pool, store, cfg)
	e := engine(t, parser.SummedAreaSrc)
	res, ok := e.Analysis("SummedArea")
	if !ok {
		t.Fatal("no analysis for SummedArea")
	}
	var base *PlanDescriptor
	for _, payload := range planPayloads(t, store) {
		d, err := DecodePlan(payload)
		if err != nil {
			t.Fatal(err)
		}
		if d.Validate(res) == nil && len(d.Succs) > 0 {
			base = d
			break
		}
	}
	if base == nil {
		t.Fatal("no valid persisted descriptor with edges to perturb")
	}
	clone := func() *PlanDescriptor {
		re, err := EncodePlan(base)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodePlan(re)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tileIdx, lexIdx := -1, -1
	for i, td := range base.Tasks {
		if td.Kind == PlanTaskTile && tileIdx < 0 {
			tileIdx = i
		}
		if td.Kind == PlanTaskTile && len(td.Lex) > 0 && lexIdx < 0 {
			lexIdx = i
		}
	}
	if tileIdx < 0 {
		t.Fatal("descriptor has no tile task to perturb")
	}
	cases := []struct {
		name    string
		mutate  func(d *PlanDescriptor)
		skip    bool
		wantSub string
	}{
		{"succ_out_of_range", func(d *PlanDescriptor) { d.Succs[0] = int32(len(d.Tasks)) }, false, "out of range"},
		{"self_edge", func(d *PlanDescriptor) {
			// Aim task 0's first successor back at itself.
			for i := 0; i < len(d.Tasks); i++ {
				if d.SuccOff[i] < d.SuccOff[i+1] {
					d.Succs[d.SuccOff[i]] = int32(i)
					return
				}
			}
		}, false, ""},
		{"offsets_do_not_span", func(d *PlanDescriptor) { d.SuccOff[len(d.SuccOff)-1]++ }, false, "span"},
		{"offsets_not_monotone", func(d *PlanDescriptor) {
			d.SuccOff[1] = d.SuccOff[len(d.SuccOff)-1] + 1
		}, false, ""},
		{"dep_count_mismatch", func(d *PlanDescriptor) { d.InitDeps[0]++ }, false, "inconsistent"},
		{"task_count_mismatch", func(d *PlanDescriptor) { d.InitDeps = d.InitDeps[:len(d.InitDeps)-1] }, false, "dep-counts"},
		{"step_out_of_range", func(d *PlanDescriptor) {
			d.Tasks[0] = PlanTaskDesc{Kind: PlanTaskStep, Step: int32(len(res.Schedule))}
		}, false, "schedule index"},
		{"node_out_of_range", func(d *PlanDescriptor) {
			d.Tasks[tileIdx].Node = int32(len(res.Graph.Nodes))
		}, false, "node"},
		{"unknown_rule", func(d *PlanDescriptor) { d.Tasks[tileIdx].Rule = 9999 }, false, "no rule"},
		{"bounds_rank_mismatch", func(d *PlanDescriptor) {
			d.Tasks[tileIdx].Bounds = d.Tasks[tileIdx].Bounds[:len(d.Tasks[tileIdx].Bounds)-1]
		}, false, "rank"},
		{"unknown_kind", func(d *PlanDescriptor) { d.Tasks[0].Kind = 77 }, false, "unknown task kind"},
		{"lex_dim_out_of_range", func(d *PlanDescriptor) {
			d.Tasks[lexIdx].Lex[0].Dim = len(d.Tasks[lexIdx].Bounds)
		}, lexIdx < 0, "lex dimension"},
		{"lex_dir_zero", func(d *PlanDescriptor) {
			d.Tasks[lexIdx].Lex[0].Dir = 0
		}, lexIdx < 0, "lex direction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("shape not present in this descriptor")
			}
			d := clone()
			tc.mutate(d)
			err := d.Validate(res)
			if err == nil {
				t.Fatal("perturbed descriptor validated")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if _, err := d.rehydrate(res); err == nil {
				t.Fatal("perturbed descriptor rehydrated")
			}
		})
	}

	t.Run("cycle", func(t *testing.T) {
		d := &PlanDescriptor{
			Tasks:    []PlanTaskDesc{{Kind: PlanTaskFence}, {Kind: PlanTaskFence}},
			SuccOff:  []int32{0, 1, 2},
			Succs:    []int32{1, 0},
			InitDeps: []int32{1, 1},
		}
		err := d.Validate(res)
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("cyclic descriptor: got %v, want cycle error", err)
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
