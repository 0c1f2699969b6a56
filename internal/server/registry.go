package server

import (
	"fmt"
	"sort"

	"petabricks/internal/bench"
)

// Registry maps program names to runnable benchmarks: the native-Go
// kernels plus any interpreted .pbcc transforms. Build it fully before
// handing it to New; it is read-only while the server runs.
type Registry struct {
	byName map[string]*bench.Benchmark
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*bench.Benchmark{}}
}

// Add registers one benchmark; duplicate names are an error.
func (r *Registry) Add(b *bench.Benchmark) error {
	if b == nil || b.Name == "" {
		return fmt.Errorf("server: benchmark without a name")
	}
	if _, ok := r.byName[b.Name]; ok {
		return fmt.Errorf("server: duplicate program %q", b.Name)
	}
	r.byName[b.Name] = b
	return nil
}

// AddKernels registers the four native benchmark kernels.
func (r *Registry) AddKernels() error {
	for _, b := range bench.Kernels() {
		if err := r.Add(b); err != nil {
			return err
		}
	}
	return nil
}

// LoadDSLFile parses a .pbcc source file and registers every servable
// transform under its transform name.
func (r *Registry) LoadDSLFile(path string) error {
	bs, err := bench.LoadDSL(path)
	if err != nil {
		return err
	}
	for _, b := range bs {
		if err := r.Add(b); err != nil {
			return err
		}
	}
	return nil
}

// Get resolves a program by name.
func (r *Registry) Get(name string) (*bench.Benchmark, bool) {
	b, ok := r.byName[name]
	return b, ok
}

// Names lists registered programs sorted by name.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for k := range r.byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
