package autotuner

import "petabricks/internal/choice"

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(cfg *choice.Config, n int64) float64

// Measure implements Evaluator.
func (f EvaluatorFunc) Measure(cfg *choice.Config, n int64) float64 { return f(cfg, n) }
