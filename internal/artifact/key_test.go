package artifact

import (
	"strings"
	"testing"

	"petabricks/internal/choice"
)

// baseKey is the reference invocation every perturbation test varies
// one component of.
func baseKey() Key {
	return Key{
		Prog:      HashString("transform T ..."),
		Transform: "RollingSum",
		Sizes:     SizesKey(map[string]int64{"n": 64}),
		ConfigFP:  ConfigFingerprint(choice.NewConfig()),
		Engine:    2,
	}
}

// TestKeyComponentsPerturb proves every key component matters: PRs 2-7
// each hand-rolled a near-identical cache key, and a component silently
// dropped from one of them meant views sharing artifacts they must not.
// One canonical builder, one test that each field changes the key.
func TestKeyComponentsPerturb(t *testing.T) {
	base := baseKey()
	cfg := choice.NewConfig()
	cfg.SetInt("pbc.parGrain", 8)
	perturbed := map[string]Key{}
	{
		k := base
		k.Prog = HashString("transform U ...")
		perturbed["program"] = k
	}
	{
		k := base
		k.Transform = "MatrixMultiply"
		perturbed["transform"] = k
	}
	{
		k := base
		k.Sizes = SizesKey(map[string]int64{"n": 65})
		perturbed["sizes"] = k
	}
	{
		k := base
		k.ConfigFP = ConfigFingerprint(cfg)
		perturbed["config"] = k
	}
	{
		k := base
		k.Engine = 1
		perturbed["engine"] = k
	}
	seen := map[string]string{base.String(): "base"}
	for name, k := range perturbed {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("perturbing %s yields the same key as %s: %s", name, prev, s)
		}
		seen[s] = name
		if entryID(KindJIT, k.String()) == entryID(KindJIT, base.String()) {
			t.Errorf("perturbing %s yields the same ID as base: %s", name, entryID(KindJIT, k.String()))
		}
	}
}

// TestKeyKindSeparatesID proves the artifact kind joins the file
// identity: a plan descriptor and a jit program compiled for the very
// same invocation key must land in different disk files, or whichever
// is saved second silently overwrites the first.
func TestKeyKindSeparatesID(t *testing.T) {
	base := baseKey()
	ids := map[string]string{}
	for _, kind := range []string{KindPlan, KindJIT} {
		id := entryID(kind, base.String())
		if prev, dup := ids[id]; dup {
			t.Errorf("kinds %s and %s share ID %s for one key", kind, prev, id)
		}
		ids[id] = kind
	}
}

// TestKeyStringStable pins the canonical rendering so persisted
// artifacts keep their identity across releases (a silent format change
// would orphan every on-disk artifact without a schema bump).
func TestKeyStringStable(t *testing.T) {
	k := Key{Prog: 0x1a2b, Transform: "RollingSum", Sizes: "n=64", ConfigFP: 0x9f3c, Engine: 2}
	if got, want := k.String(), "p=1a2b|RollingSum|n=64|cfg=9f3c|eng=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.HasPrefix(entryID(KindJIT, k.String()), "v10-") {
		t.Errorf("ID %q does not carry schema version prefix v10-", entryID(KindJIT, k.String()))
	}
	// No sizes: the segment disappears rather than leaving "||".
	k.Sizes = ""
	if got, want := k.String(), "p=1a2b|RollingSum|cfg=9f3c|eng=2"; got != want {
		t.Errorf("String() without sizes = %q, want %q", got, want)
	}
}

// TestSizesKeyCanonical proves the size vector encodes order-independently.
func TestSizesKeyCanonical(t *testing.T) {
	a := SizesKey(map[string]int64{"m": 3, "n": 64})
	if a != "m=3|n=64" {
		t.Errorf("SizesKey = %q, want m=3|n=64", a)
	}
	if SizesKey(nil) != "" {
		t.Errorf("SizesKey(nil) = %q, want empty", SizesKey(nil))
	}
	if SizesKey(map[string]int64{"n": 64, "m": 3}) != a {
		t.Error("SizesKey depends on map iteration order")
	}
}

// TestConfigFingerprintSensitivity checks the fingerprint reacts to every
// layer of a configuration: int tunables, selector choices, per-level
// cutoffs, and per-level params.
func TestConfigFingerprintSensitivity(t *testing.T) {
	fps := map[uint64]string{}
	record := func(name string, cfg *choice.Config) {
		fp := ConfigFingerprint(cfg)
		if prev, dup := fps[fp]; dup {
			t.Errorf("configs %s and %s share fingerprint %x", name, prev, fp)
		}
		fps[fp] = name
	}
	record("default", choice.NewConfig())

	ints := choice.NewConfig()
	ints.SetInt("pbc.parGrain", 4)
	record("int-tunable", ints)

	ints2 := choice.NewConfig()
	ints2.SetInt("pbc.parGrain", 5)
	record("int-tunable-other-value", ints2)

	sel0 := choice.NewConfig()
	sel0.SetSelector("T.rule", choice.NewSelector(0))
	record("selector-choice-0", sel0)

	sel1 := choice.NewConfig()
	sel1.SetSelector("T.rule", choice.NewSelector(1))
	record("selector-choice-1", sel1)

	cut := choice.NewConfig()
	cut.SetSelector("T.rule", choice.Selector{Levels: []choice.Level{
		{Cutoff: 16, Choice: 1},
		{Cutoff: choice.Inf, Choice: 0},
	}})
	record("selector-cutoff", cut)

	par := choice.NewConfig()
	par.SetSelector("T.rule", choice.Selector{Levels: []choice.Level{
		{Cutoff: choice.Inf, Choice: 1, Params: map[string]int64{"block": 32}},
	}})
	record("selector-params", par)

	// Same logical content must collide, whatever the build order.
	again := choice.NewConfig()
	again.SetInt("pbc.parGrain", 4)
	if ConfigFingerprint(again) != ConfigFingerprint(ints) {
		t.Error("identical configs produce different fingerprints")
	}
	if ConfigFingerprint(nil) != ConfigFingerprint(nil) {
		t.Error("nil config fingerprint is unstable")
	}
}

// TestHashBytesMatchesHashString keeps the two FNV entry points in sync:
// the disk tier checksums payload bytes, keys hash strings, and both
// must agree on shared content or checksum verification would lie.
func TestHashBytesMatchesHashString(t *testing.T) {
	const s = "p=1a2b|RollingSum|n=64|cfg=9f3c|eng=2"
	if HashBytes([]byte(s)) != HashString(s) {
		t.Error("HashBytes and HashString disagree on identical content")
	}
}
