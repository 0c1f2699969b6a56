package petabricks_test

import (
	"os"
	"path/filepath"
	"testing"

	"petabricks/internal/pbc/parser"
)

// TestProgramCopiesAgree pins the three copies of the five corpus
// programs to one text: parser's source constants (which tests,
// examples and tools compile), testdata/ (the corpus tests and pbserve
// -dsl read) and benchmark/programs/ (what the repository benchmark
// runs), byte for byte.
func TestProgramCopiesAgree(t *testing.T) {
	for file, src := range map[string]string{
		"heat1d.pbcc":     parser.Heat1DSrc,
		"matmul.pbcc":     parser.MatrixMultiplySrc,
		"mergesort.pbcc":  parser.MergeSortSrc,
		"rollingsum.pbcc": parser.RollingSumSrc,
		"summedarea.pbcc": parser.SummedAreaSrc,
	} {
		for _, dir := range []string{"testdata", filepath.Join("benchmark", "programs")} {
			path := filepath.Join(dir, file)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != src {
				t.Errorf("%s differs from the parser constant that holds the same program", path)
			}
		}
	}
}
