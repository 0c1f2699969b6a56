package artifact

// SizesKey encodes a bound size vector canonically (sorted by variable
// name), e.g. "m=3|n=64".
func SizesKey(sizes map[string]int64) string {
	names := sortedKeys(sizes)
	vals := make([]int64, len(names))
	for i, k := range names {
		vals[i] = sizes[k]
	}
	return SizesKeySorted(names, vals)
}
