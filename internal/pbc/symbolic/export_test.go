package symbolic

// CompareFourPass exposes the reference comparison of affine_ref_test.go
// to the external tests, which may import the packages built on this one.
var CompareFourPass = compareFourPass
