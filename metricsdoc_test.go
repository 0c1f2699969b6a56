package petabricks_test

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeMetricsTable keeps README's Observability table and the
// code in step: the families named in the table's first column, with
// brace lists such as pb_interp_cache_{hits,misses}_total expanded,
// must be exactly the "pb_…" metric names that non-test code under
// internal/ and cmd/ registers.
func TestReadmeMetricsTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n| Family | What it tracks |\n")
	if !ok {
		t.Fatal("README has no Observability table (| Family | What it tracks |)")
	}
	// A family is pb_ plus name characters and brace lists; a label
	// selector such as {result=…} ends it.
	family := regexp.MustCompile(`pb_[a-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)*`)
	documented := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			continue
		}
		for _, f := range family.FindAllString(cells[1], -1) {
			for _, name := range expandBraces(f) {
				documented[name] = true
			}
		}
	}

	literal := regexp.MustCompile(`"(pb_[a-z0-9_]+)"`)
	registered := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
				registered[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(registered) == 0 {
		t.Fatal("found no registered pb_ metric names")
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !documented[name] {
			t.Errorf("%s is registered but has no row in README's Observability table", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !registered[name] {
			t.Errorf("README's Observability table names %s, which no code registers", name)
		}
	}
}

// expandBraces expands every {a,b,…} list in s, left to right.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}
