package sortk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"petabricks/internal/choice"
	"petabricks/internal/runtime"
)

func runSort(t *testing.T, cfg *choice.Config, pool *runtime.Pool, data []int64) {
	t.Helper()
	tr := New()
	ex := choice.NewExec(pool, cfg)
	choice.Run(ex, tr, Span{Data: data, Tmp: make([]int64, len(data))})
	if !IsSorted(data) {
		t.Fatalf("output not sorted (n=%d)", len(data))
	}
}

func pureConfig(c int) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("sort", choice.NewSelector(c))
	return cfg
}

func randData(rng *rand.Rand, n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		d[i] = rng.Int63n(1 << 30)
	}
	return d
}

func TestEachPureAlgorithmSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c, name := range ChoiceNames {
		for _, n := range []int{0, 1, 2, 3, 10, 100, 1000} {
			data := randData(rng, n)
			runSort(t, pureConfig(c), nil, data)
			_ = name
		}
	}
}

func TestDuplicateHeavyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for c := range ChoiceNames {
		data := make([]int64, 500)
		for i := range data {
			data[i] = rng.Int63n(3) // many duplicates
		}
		runSort(t, pureConfig(c), nil, data)
	}
}

func TestAllEqualInput(t *testing.T) {
	for c := range ChoiceNames {
		data := make([]int64, 300)
		for i := range data {
			data[i] = 42
		}
		runSort(t, pureConfig(c), nil, data)
	}
}

func TestNegativeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for c := range ChoiceNames {
		data := make([]int64, 400)
		for i := range data {
			data[i] = rng.Int63n(1000) - 500
		}
		runSort(t, pureConfig(c), nil, data)
	}
}

func TestAdversarialPatterns(t *testing.T) {
	patterns := map[string]func(n int) []int64{
		"sorted": func(n int) []int64 {
			d := make([]int64, n)
			for i := range d {
				d[i] = int64(i)
			}
			return d
		},
		"reverse": func(n int) []int64 {
			d := make([]int64, n)
			for i := range d {
				d[i] = int64(n - i)
			}
			return d
		},
		"sawtooth": func(n int) []int64 {
			d := make([]int64, n)
			for i := range d {
				d[i] = int64(i % 7)
			}
			return d
		},
		"two-values": func(n int) []int64 {
			d := make([]int64, n)
			for i := range d {
				d[i] = int64(i % 2)
			}
			return d
		},
	}
	for name, gen := range patterns {
		for c := range ChoiceNames {
			data := gen(257)
			runSort(t, pureConfig(c), nil, data)
			_ = name
		}
	}
}

func TestHybridComposition(t *testing.T) {
	// The paper's 8-way tuned config: IS(600) QS(1420) 2MS(inf).
	cfg := choice.NewConfig()
	cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
		{Cutoff: 600, Choice: ChoiceIS},
		{Cutoff: 1420, Choice: ChoiceQS},
		{Cutoff: choice.Inf, Choice: ChoiceMS, Params: map[string]int64{"k": 2}},
	}})
	rng := rand.New(rand.NewSource(10))
	runSort(t, cfg, nil, randData(rng, 50000))
}

func TestNiagaraStyleConfig(t *testing.T) {
	// Table 2 Niagara: 16MS(75) 8MS(1461) 4MS(2400) 2MS(inf).
	cfg := choice.NewConfig()
	cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
		{Cutoff: 75, Choice: ChoiceMS, Params: map[string]int64{"k": 16}},
		{Cutoff: 1461, Choice: ChoiceMS, Params: map[string]int64{"k": 8}},
		{Cutoff: 2400, Choice: ChoiceMS, Params: map[string]int64{"k": 4}},
		{Cutoff: choice.Inf, Choice: ChoiceMS, Params: map[string]int64{"k": 2}},
	}})
	rng := rand.New(rand.NewSource(11))
	runSort(t, cfg, nil, randData(rng, 30000))
}

func TestRadixIntoInsertion(t *testing.T) {
	// Table 2 Xeon 1-way: IS(75) 4MS(98) RS(inf).
	cfg := choice.NewConfig()
	cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
		{Cutoff: 75, Choice: ChoiceIS},
		{Cutoff: 98, Choice: ChoiceMS, Params: map[string]int64{"k": 4}},
		{Cutoff: choice.Inf, Choice: ChoiceRS},
	}})
	rng := rand.New(rand.NewSource(12))
	runSort(t, cfg, nil, randData(rng, 30000))
}

func TestParallelSortAllAlgorithms(t *testing.T) {
	pool := runtime.NewPool(8)
	defer pool.Close()
	rng := rand.New(rand.NewSource(13))
	for c := range ChoiceNames {
		cfg := pureConfig(c)
		cfg.SetInt("sort.seqcutoff", 1024)
		n := 40000
		if c == ChoiceIS {
			n = 3000 // insertion sort is quadratic
		}
		runSort(t, cfg, pool, randData(rng, n))
	}
}

func TestGenerateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Generate(rng, 128)
	if len(s.Data) != 128 || len(s.Tmp) != 128 {
		t.Fatal("Generate produced wrong shape")
	}
	for _, v := range s.Data {
		if v < 0 {
			t.Fatal("Generate should produce non-negative values")
		}
	}
}

func TestSpaceDeclaration(t *testing.T) {
	tr := New()
	sp := Space(tr)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sp.Selectors, func(s choice.SelectorSpec) bool { return s.Transform == "sort" })
	if i < 0 {
		t.Fatal("missing sort selector spec")
	}
	spec := sp.Selectors[i]
	if spec.NumChoices() != 4 {
		t.Fatalf("expected 4 choices, got %d", spec.NumChoices())
	}
	rec := spec.RecursiveChoices()
	if len(rec) != 3 {
		t.Fatalf("expected QS/MS/RS recursive, got %v", rec)
	}
	if len(spec.LevelParams) != 1 || spec.LevelParams[0].Name != "k" {
		t.Fatal("merge fan-out param not declared")
	}
}

func TestMergeFanOuts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []int64{2, 3, 4, 8, 16} {
		cfg := choice.NewConfig()
		cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
			{Cutoff: choice.Inf, Choice: ChoiceMS, Params: map[string]int64{"k": k}},
		}})
		runSort(t, cfg, nil, randData(rng, 4097))
	}
}

func TestSortIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for c := range ChoiceNames {
		data := randData(rng, 777)
		want := map[int64]int{}
		for _, v := range data {
			want[v]++
		}
		runSort(t, pureConfig(c), nil, data)
		got := map[int64]int{}
		for _, v := range data {
			got[v]++
		}
		if len(got) != len(want) {
			t.Fatalf("choice %d changed the multiset", c)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("choice %d changed multiplicity of %d", c, k)
			}
		}
	}
}

// Property: every algorithm agrees with every other on random inputs —
// the automated consistency check of §3.5 in miniature.
func TestAlgorithmsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		ref := randData(rng, n)
		first := append([]int64{}, ref...)
		runSort(t, pureConfig(0), nil, first)
		for c := 1; c < len(ChoiceNames); c++ {
			d := append([]int64{}, ref...)
			runSort(t, pureConfig(c), nil, d)
			for i := range d {
				if d[i] != first[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLowerBound(t *testing.T) {
	d := []int64{1, 3, 3, 5, 9}
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {9, 4}, {10, 5}}
	for _, c := range cases {
		if got := lowerBound(d, c.v); got != c.want {
			t.Errorf("lowerBound(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSeqMerge(t *testing.T) {
	out := make([]int64, 7)
	seqMerge([]int64{1, 4, 6}, []int64{2, 3, 5, 7}, out)
	want := []int64{1, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("seqMerge = %v", out)
		}
	}
	// One side empty.
	out2 := make([]int64, 2)
	seqMerge(nil, []int64{8, 9}, out2)
	if out2[0] != 8 || out2[1] != 9 {
		t.Fatal("seqMerge with empty side broken")
	}
}

func TestMedianOfThree(t *testing.T) {
	if medianOfThree([]int64{1, 2, 3}) != 2 {
		t.Fatal("sorted median")
	}
	if medianOfThree([]int64{3, 1, 2}) != 2 {
		t.Fatal("rotated median")
	}
	if medianOfThree([]int64{2, 9, 1}) != 2 {
		t.Fatal("ends median")
	}
	if medianOfThree([]int64{5, 5, 5}) != 5 {
		t.Fatal("equal median")
	}
}

func TestPartition3(t *testing.T) {
	d := []int64{5, 1, 5, 9, 2, 5, 8}
	lt, gt := partition3(d, 5)
	for i := 0; i < lt; i++ {
		if d[i] >= 5 {
			t.Fatalf("left partition violated: %v", d)
		}
	}
	for i := lt; i < gt; i++ {
		if d[i] != 5 {
			t.Fatalf("middle partition violated: %v", d)
		}
	}
	for i := gt; i < len(d); i++ {
		if d[i] <= 5 {
			t.Fatalf("right partition violated: %v", d)
		}
	}
}
