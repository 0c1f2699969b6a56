package interp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/interp"
)

// TestPlansInRandomOrder runs each plan's tasks one at a time in seeded
// random dependency orders (RunShuffled) and requires every output to
// match the serial step loop bit for bit. On a machine with few cores
// a pooled run seldom takes its tasks out of order, so a missing edge
// between tiles — within a step or between steps — or a tile that
// leaves a cell out goes unseen there; here each of 8 seeds picks a
// different order among the ready tasks. It covers the corpus and
// generated programs at two sizes, at pbc.parGrain 1, 2, 4 and the
// default.
func TestPlansInRandomOrder(t *testing.T) {
	cases := corpusCases(t)
	g := gen.New(1)
	for want := len(cases) + 40; len(cases) < want; {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !c.WantErr && c.WantRunErr == "" {
			cases = append(cases, c)
		}
	}
	const seeds = 8
	runs, multi := 0, 0
	for ci, c := range cases {
		e := newEngine(t, c.Src)
		for _, n := range []int{c.MinN + 8, 40} {
			inputs := c.MakeInputs(n, rand.New(rand.NewSource(int64(ci*100+n))))
			for _, grain := range []int64{1, 2, 4, 0} {
				cfg := choice.NewConfig()
				if grain > 0 {
					cfg.SetInt(interp.ParGrainKey, grain)
				}
				view := e.WithConfig(cfg)
				var ref map[string]*matrix.Matrix
				var err error
				if len(c.TArgs) > 0 {
					ref, err = view.RunTemplate(c.Main, c.TArgs, inputs)
				} else {
					ref, err = view.Run(c.Main, inputs)
				}
				if err != nil {
					t.Fatalf("%s n=%d grain=%d: serial run: %v", c.Name, n, grain, err)
				}
				for seed := int64(1); seed <= seeds; seed++ {
					label := fmt.Sprintf("%s n=%d grain=%d seed=%d", c.Name, n, grain, seed)
					out, tasks, err := view.RunShuffled(c.Main, c.TArgs, inputs, seed)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					runs++
					if tasks >= 2 {
						multi++
					}
					sameBits(t, label, ref, out)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no run took a plan of two or more tasks")
	}
	t.Logf("%d cases, %d shuffled runs, %d of them over plans of two or more tasks", len(cases), runs, multi)
}

// sameBits fails unless got holds ref's matrices bit for bit.
func sameBits(t *testing.T, label string, ref, got map[string]*matrix.Matrix) {
	t.Helper()
	for name, m := range ref {
		a, b := m.Copy().Data(), got[name].Copy().Data()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s flat %d = %v, serial step loop %v", label, name, i, b[i], a[i])
			}
		}
	}
}
