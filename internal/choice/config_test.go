package choice

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sampleConfig() *Config {
	c := NewConfig()
	c.SetInt("sort.seqcutoff", 512)
	c.SetInt("matmul.block", 64)
	c.SetSelector("sort", Selector{Levels: []Level{
		{Cutoff: 600, Choice: 0},
		{Cutoff: 1420, Choice: 1},
		{Cutoff: Inf, Choice: 2, Params: map[string]int64{"k": 2}},
	}})
	return c
}

func TestConfigRoundTrip(t *testing.T) {
	c := sampleConfig()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", c, back)
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	c := sampleConfig()
	path := filepath.Join(t.TempDir(), "app.cfg")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatal("file round trip mismatch")
	}
}

func TestConfigTextFormat(t *testing.T) {
	c := sampleConfig()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"matmul.block = 64",
		"sort.seqcutoff = 512",
		"selector sort = 600:0 1420:1 inf:2{k=2}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("config text missing %q:\n%s", want, text)
		}
	}
}

func TestConfigHandEdit(t *testing.T) {
	// The paper: "This configuration file can be tweaked by hand to
	// force specific choices."
	text := `
# hand-written
sort.seqcutoff = 64
selector sort = inf:1
`
	c, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if c.Int("sort.seqcutoff", 0) != 64 {
		t.Fatal("int not parsed")
	}
	if c.Selector("sort", 0).Choose(1000000).Choice != 1 {
		t.Fatal("selector not parsed")
	}
}

func TestConfigParseErrors(t *testing.T) {
	bad := []string{
		"sort.cutoff 12",
		"sort.cutoff = twelve",
		"selector s = 10-3",
		"selector s = abc:1",
		"selector s = 10:xyz",
		"selector s = 10:1{k}",
		"selector s = 10:1{k=z}",
		"selector s = 10:1{k=2",
		"selector noequals",
	}
	for _, text := range bad {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("expected parse error for %q", text)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewConfig()
	if c.Int("missing", 42) != 42 {
		t.Fatal("missing int should use default")
	}
	if c.Selector("missing", 3).Choose(10).Choice != 3 {
		t.Fatal("missing selector should use default choice")
	}
	var nilCfg *Config
	if nilCfg.Int("x", 5) != 5 || nilCfg.Selector("y", 1).Choose(0).Choice != 1 {
		t.Fatal("nil config should behave as empty")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := sampleConfig()
	d := c.Clone()
	d.SetInt("sort.seqcutoff", 1)
	d.SetSelector("sort", NewSelector(0))
	if c.Int("sort.seqcutoff", 0) != 512 {
		t.Fatal("Clone shares Ints")
	}
	if c.Selector("sort", 0).Choose(10000).Choice != 2 {
		t.Fatal("Clone shares Sels")
	}
}

// Property: any randomly generated config survives a write/read cycle.
func TestConfigRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewConfig()
		for i := 0; i < r.Intn(5); i++ {
			c.SetInt(randName(r), r.Int63n(1<<40)-1<<39)
		}
		for i := 0; i < r.Intn(3); i++ {
			var s Selector
			n := 1 + r.Intn(4)
			used := map[int64]bool{}
			for j := 0; j < n; j++ {
				cut := int64(Inf)
				if j < n-1 {
					cut = 1 + r.Int63n(100000)
					if used[cut] {
						continue
					}
					used[cut] = true
				}
				l := Level{Cutoff: cut, Choice: r.Intn(6)}
				if r.Intn(2) == 0 {
					l.Params = map[string]int64{"k": r.Int63n(16) + 2}
				}
				s.Levels = append(s.Levels, l)
			}
			c.SetSelector(randName(r), s)
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return c.Equal(back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randName(r *rand.Rand) string {
	letters := "abcdefghijklmnop"
	n := 3 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func TestSpaceValidate(t *testing.T) {
	good := &Space{
		Tunables: []TunableSpec{{Name: "a", Min: 0, Max: 10, Default: 5}},
		Selectors: []SelectorSpec{{
			Transform: "s", ChoiceNames: []string{"A", "B"},
			Recursive: []bool{false, true}, MaxLevels: 3,
		}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	bad := []*Space{
		{Tunables: []TunableSpec{{Name: "", Min: 0, Max: 1}}},
		{Tunables: []TunableSpec{{Name: "a", Min: 5, Max: 1, Default: 5}}},
		{Tunables: []TunableSpec{{Name: "a", Min: 0, Max: 1, Default: 9}}},
		{Tunables: []TunableSpec{{Name: "a", Min: 0, Max: 1}, {Name: "a", Min: 0, Max: 1}}},
		{Selectors: []SelectorSpec{{Transform: "", ChoiceNames: []string{"A"}, MaxLevels: 1}}},
		{Selectors: []SelectorSpec{{Transform: "s", MaxLevels: 1}}},
		{Selectors: []SelectorSpec{{Transform: "s", ChoiceNames: []string{"A"}, MaxLevels: 0}}},
		{Selectors: []SelectorSpec{{Transform: "s", ChoiceNames: []string{"A"}, Recursive: []bool{true, false}, MaxLevels: 1}}},
		{Selectors: []SelectorSpec{
			{Transform: "s", ChoiceNames: []string{"A"}, MaxLevels: 1},
			{Transform: "s", ChoiceNames: []string{"A"}, MaxLevels: 1},
		}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
}

func TestSpaceDefaultConfigAndLookup(t *testing.T) {
	sp := &Space{
		Tunables: []TunableSpec{{Name: "cut", Min: 1, Max: 100, Default: 32}},
		Selectors: []SelectorSpec{{
			Transform: "sort", ChoiceNames: []string{"IS", "QS", "RS"},
			Recursive: []bool{false, true, true}, MaxLevels: 4,
		}},
	}
	c := sp.DefaultConfig()
	if c.Int("cut", -1) != 32 {
		t.Fatal("default tunable missing")
	}
	if c.Selector("sort", 9).Choose(1).Choice != 0 {
		t.Fatal("default selector should use choice 0")
	}
	spec := sp.Selectors[0]
	if spec.NumChoices() != 3 {
		t.Fatalf("NumChoices = %d, want 3", spec.NumChoices())
	}
	rec := spec.RecursiveChoices()
	if len(rec) != 2 || rec[0] != 1 || rec[1] != 2 {
		t.Fatalf("RecursiveChoices = %v", rec)
	}
}

func TestTunableClamp(t *testing.T) {
	ts := TunableSpec{Name: "x", Min: 4, Max: 9, Default: 5}
	if ts.Clamp(1) != 4 || ts.Clamp(100) != 9 || ts.Clamp(7) != 7 {
		t.Fatal("Clamp broken")
	}
}

func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.cfg")
	// Save over an existing file must replace it wholesale and leave no
	// temporary files behind.
	old := NewConfig()
	old.SetInt("stale.key", 1)
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	c := sampleConfig()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatal("atomic save round trip mismatch")
	}
	if _, ok := back.Ints["stale.key"]; ok {
		t.Fatal("old file contents leaked into replacement")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func TestSaveAtomicConcurrentLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.cfg")
	c := sampleConfig()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := c.Save(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Every load races a rename; none may observe a partial file.
	for i := 0; i < 50; i++ {
		back, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(back) {
			t.Fatal("observed partial configuration during concurrent save")
		}
	}
	<-done
}
