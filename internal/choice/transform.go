package choice

import (
	"fmt"

	"petabricks/internal/runtime"
)

// Transform is an algorithm with a menu of implementations ("rules" at
// the granularity the autotuner selects between). It is the native-Go
// counterpart of a compiled PetaBricks transform: each Choice is one way
// to compute the output, and recursive choices re-enter the transform
// through the tuned selector, composing hybrid algorithms.
type Transform[I, O any] struct {
	// Name keys the transform's selector and tunables in the Config.
	Name string
	// Size maps an input to the problem-size metric the selector is
	// indexed by (e.g. array length, matrix dimension).
	Size func(I) int64
	// Choices is the algorithm menu.
	Choices []Choice[I, O]
}

// Choice is one implementation of a transform.
type Choice[I, O any] struct {
	// Name is a short abbreviation used in rendered configurations.
	Name string
	// Recursive marks choices that recursively re-enter the transform.
	Recursive bool
	// Fn computes the output. Recursive implementations call
	// c.Recurse to re-enter the transform with the tuned selector.
	Fn func(c *Call[I, O], in I) O
}

// ChoiceNames returns the menu's abbreviations in order.
func (t *Transform[I, O]) ChoiceNames() []string {
	out := make([]string, len(t.Choices))
	for i, c := range t.Choices {
		out[i] = c.Name
	}
	return out
}

// RecursiveFlags returns the per-choice Recursive flags in order.
func (t *Transform[I, O]) RecursiveFlags() []bool {
	out := make([]bool, len(t.Choices))
	for i, c := range t.Choices {
		out[i] = c.Recursive
	}
	return out
}

// SeqCutoffName is the config key of the transform's tunable
// dynamic-scheduler cutoff (§3.2: each transform "includes a tunable
// parameter to decide when to switch from the dynamically scheduled to
// the sequential version of the code").
func (t *Transform[I, O]) SeqCutoffName() string { return t.Name + ".seqcutoff" }

// SelectorSpec builds the default search-space declaration for t.
func (t *Transform[I, O]) SelectorSpec(maxLevels int, levelParams ...TunableSpec) SelectorSpec {
	return SelectorSpec{
		Transform:   t.Name,
		ChoiceNames: t.ChoiceNames(),
		Recursive:   t.RecursiveFlags(),
		MaxLevels:   maxLevels,
		LevelParams: levelParams,
	}
}

// Exec carries the execution environment: the worker pool and the tuned
// configuration. A nil Pool executes everything sequentially inline.
type Exec struct {
	Pool *runtime.Pool
	Cfg  *Config
}

// NewExec builds an execution environment.
func NewExec(pool *runtime.Pool, cfg *Config) *Exec {
	if cfg == nil {
		cfg = NewConfig()
	}
	return &Exec{Pool: pool, Cfg: cfg}
}

// Call is the per-invocation context handed to a choice implementation.
//
// Invariant: W is always the scheduler thread the implementation is
// currently running on. Invoke is called synchronously with the caller's
// worker, and Parallel hands each branch a re-bound Call, so a stolen
// branch never touches the victim's deque. Implementations must not
// smuggle a Call across goroutines they create themselves.
type Call[I, O any] struct {
	T     *Transform[I, O]
	Ex    *Exec
	W     *runtime.Worker
	Level Level
	size  int64
}

// Param reads a per-level selector parameter for the current level.
func (c *Call[I, O]) Param(name string, def int64) int64 { return c.Level.Param(name, def) }

// Recurse re-enters the transform on a sub-problem; the tuned selector
// decides which choice handles the new size, which is how algorithmic
// compositions (e.g. quicksort switching to insertion sort) happen.
func (c *Call[I, O]) Recurse(in I) O { return Invoke(c.Ex, c.T, c.W, in) }

// Parallel runs the branches as a fork-join group when the current
// problem size is at or above the transform's sequential cutoff (and a
// pool is available); otherwise it runs them inline in order. Each
// branch receives a Call bound to the scheduler thread that actually
// executes it — a stolen branch must spawn onto the thief's deque, not
// the victim's, so branches must do all further Recurse/Parallel calls
// through the Call they are handed.
func (c *Call[I, O]) Parallel(fs ...func(cc *Call[I, O])) {
	cutoff := c.Ex.Cfg.Int(c.T.SeqCutoffName(), 0)
	if c.W == nil || c.size < cutoff {
		for _, f := range fs {
			f(c)
		}
		return
	}
	wrapped := make([]func(*runtime.Worker), len(fs))
	for i, f := range fs {
		f := f
		wrapped[i] = func(w2 *runtime.Worker) {
			cc := *c
			cc.W = w2
			f(&cc)
		}
	}
	c.W.Do(wrapped...)
}

// ParallelFor runs body over [lo, hi), in parallel above the sequential
// cutoff, with the given grain.
func (c *Call[I, O]) ParallelFor(lo, hi, grain int, body func(w *runtime.Worker, lo, hi int)) {
	cutoff := c.Ex.Cfg.Int(c.T.SeqCutoffName(), 0)
	if c.W == nil || c.size < cutoff {
		body(nil, lo, hi)
		return
	}
	c.W.For(lo, hi, grain, body)
}

// Invoke runs the transform on an input from inside the pool (w may be
// nil for sequential execution). The configured selector picks the
// choice for the input's size.
func Invoke[I, O any](ex *Exec, t *Transform[I, O], w *runtime.Worker, in I) O {
	size := t.Size(in)
	level := ex.Cfg.Selector(t.Name, 0).Choose(size)
	if level.Choice < 0 || level.Choice >= len(t.Choices) {
		panic(fmt.Sprintf("choice: transform %q has no choice %d", t.Name, level.Choice))
	}
	call := &Call[I, O]{T: t, Ex: ex, W: w, Level: level, size: size}
	return t.Choices[level.Choice].Fn(call, in)
}

// Run executes the transform from outside the pool, blocking until the
// result is ready. With a nil pool it runs sequentially on the caller's
// goroutine.
func Run[I, O any](ex *Exec, t *Transform[I, O], in I) O {
	if ex.Pool == nil {
		return Invoke(ex, t, nil, in)
	}
	var out O
	ex.Pool.Run(func(w *runtime.Worker) { out = Invoke(ex, t, w, in) })
	return out
}
