package interp

import (
	"os"
	"path/filepath"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
)

// runHeat1D executes Heat1D once on eng with deterministic inputs.
func runHeat1D(t *testing.T, eng *Engine, n int64) map[string]*matrix.Matrix {
	t.Helper()
	inputs, err := eng.GenerateInputs("Heat1D", n, 5)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eng.Run("Heat1D", inputs)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestWarmStartFromDisk is the restart story end to end, in-process: an
// engine backed by a persistent artifact store compiles Heat1D (fully
// jit-lowerable) and persists the bytecode; a second engine built from
// scratch over a reopened store must serve bit-identical outputs by
// loading that bytecode — counted as jit-warm — instead of lowering
// again.
func TestWarmStartFromDisk(t *testing.T) {
	const n = 33
	dir := t.TempDir()

	store1, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine(t, parser.Heat1DSrc)
	e1.UseArtifacts(store1)
	want := runHeat1D(t, e1, n)
	if store1.Len() == 0 {
		t.Fatal("first run persisted no artifacts; nothing to warm-start from")
	}

	// The restart: fresh engine, fresh store instance, same directory.
	store2, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine(t, parser.Heat1DSrc)
	e2.UseArtifacts(store2)

	before := EngineStatsSnapshot().Compiled
	got := runHeat1D(t, e2, n)
	after := EngineStatsSnapshot().Compiled

	for name, m := range want {
		if !m.Equal(got[name]) {
			t.Errorf("output %s differs between cold and warm-started run", name)
		}
	}
	if store2.DiskHits() == 0 {
		t.Error("warm-started run recorded no disk-tier hits")
	}
	if store2.DiskMisses() != 0 {
		t.Errorf("warm-started run recorded %d disk misses", store2.DiskMisses())
	}
	if warm := after["jit-warm"] - before["jit-warm"]; warm == 0 {
		t.Error("no rule was counted as jit-warm")
	}
	if fresh := after["jit"] - before["jit"]; fresh != 0 {
		t.Errorf("warm-started run still lowered %d rules from scratch", fresh)
	}
}

// TestWarmStartIgnoresForeignKey proves a populated store warm-starts
// only exact key matches: a different size runs cold (different Key →
// disk miss → fresh lowering), and its outputs are still correct.
func TestWarmStartIgnoresForeignKey(t *testing.T) {
	dir := t.TempDir()
	store1, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine(t, parser.Heat1DSrc)
	e1.UseArtifacts(store1)
	runHeat1D(t, e1, 33)

	store2, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine(t, parser.Heat1DSrc)
	e2.UseArtifacts(store2)
	runHeat1D(t, e2, 17) // other size: must miss, compile, and persist
	if store2.DiskMisses() == 0 {
		t.Error("foreign-size run should have missed the disk tier")
	}
	if store2.Len() <= store1.Len() {
		t.Errorf("foreign-size run did not persist its own artifact (%d <= %d entries)",
			store2.Len(), store1.Len())
	}
}

// TestWarmStartRejectsTamperedArtifact corrupts the persisted bytecode
// between runs: the warm path must fall back to a fresh lowering with
// the corruption counted, and outputs must stay correct.
func TestWarmStartRejectsTamperedArtifact(t *testing.T) {
	const n = 33
	dir := t.TempDir()
	store1, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine(t, parser.Heat1DSrc)
	e1.UseArtifacts(store1)
	want := runHeat1D(t, e1, n)

	// Flip the last payload byte of every artifact inside its pack.
	for _, info := range store1.List() {
		path := filepath.Join(dir, info.Pack)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[info.Offset+info.Size-1] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine(t, parser.Heat1DSrc)
	e2.UseArtifacts(store2)
	got := runHeat1D(t, e2, n)
	for name, m := range want {
		if !m.Equal(got[name]) {
			t.Errorf("output %s differs after corrupt-artifact fallback", name)
		}
	}
	if store2.CorruptCount() == 0 {
		t.Error("tampered artifact was not counted corrupt")
	}
	if store2.DiskHits() != 0 {
		t.Error("tampered artifact served as a disk hit")
	}
}
