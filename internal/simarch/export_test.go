package simarch

import "petabricks/internal/choice"

// Speedup returns T(1 core)/T(all cores) for the configuration.
func (m MatMulModel) Speedup(cfg *choice.Config, n int64) float64 {
	seq := m.Arch
	seq.Cores = 1
	return MatMulModel{Arch: seq}.Measure(cfg, n) / m.Measure(cfg, n)
}
