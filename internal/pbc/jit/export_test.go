package jit

// lanesAt binds f at center, as walk binds the first cell of a box of
// mv's shape, and reports whether walk would run the row there, along
// mv[0], across its lanes.
func (f *Frame) lanesAt(center []int64, mv ...boxMove) bool {
	f.setCarries(mv)
	if err := f.bind(center); err != nil {
		return false
	}
	return f.laneable(mv[0].ext - 1)
}
