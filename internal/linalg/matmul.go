// Package linalg is the from-scratch dense linear algebra substrate that
// replaces the LAPACK/BLAS routines the paper's benchmarks called: the
// matrix-multiply variants of §4.4 (basic, blocked, transposed,
// recursive, Strassen), matrix addition/subtraction, and the band
// Cholesky solver standing in for LAPACK's DPBSV.
package linalg

import "petabricks/internal/matrix"

// MulBasic computes C = A·B with the straightforward triple loop
// (the paper's "Basic" series in Figure 15). A is h×c, B is c×w, C h×w.
func MulBasic(C, A, B *matrix.Matrix) {
	h, c, w := A.Size(0), A.Size(1), B.Size(1)
	checkMulShapes(C, A, B)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			sum := 0.0
			for k := 0; k < c; k++ {
				sum += A.At(i, k) * B.At(k, j)
			}
			C.SetAt(i, j, sum)
		}
	}
	_ = c
}

// MulTransposed computes C = A·B after materializing Bᵀ so the inner
// loop walks both operands contiguously (the "Transpose" series).
func MulTransposed(C, A, B *matrix.Matrix) {
	h, c, w := A.Size(0), A.Size(1), B.Size(1)
	checkMulShapes(C, A, B)
	bt := B.Transposed().Copy()
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			sum := 0.0
			for k := 0; k < c; k++ {
				sum += A.At(i, k) * bt.At(j, k)
			}
			C.SetAt(i, j, sum)
		}
	}
	_ = c
}

// MulBlocked computes C = A·B with square cache blocking of the given
// block size (the "Blocking" series). C must be zeroed by the caller if
// it may contain garbage; MulBlocked accumulates into C after clearing it.
func MulBlocked(C, A, B *matrix.Matrix, block int) {
	h, c, w := A.Size(0), A.Size(1), B.Size(1)
	checkMulShapes(C, A, B)
	if block < 1 {
		block = 32
	}
	C.Fill(0)
	for ii := 0; ii < h; ii += block {
		ih := minInt(ii+block, h)
		for kk := 0; kk < c; kk += block {
			kh := minInt(kk+block, c)
			for jj := 0; jj < w; jj += block {
				jh := minInt(jj+block, w)
				for i := ii; i < ih; i++ {
					for k := kk; k < kh; k++ {
						a := A.At(i, k)
						if a == 0 {
							continue
						}
						for j := jj; j < jh; j++ {
							C.SetAt(i, j, C.At(i, j)+a*B.At(k, j))
						}
					}
				}
			}
		}
	}
}

// Add computes C = A + B element-wise.
func Add(C, A, B *matrix.Matrix) {
	h, w := A.Size(0), A.Size(1)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			C.SetAt(i, j, A.At(i, j)+B.At(i, j))
		}
	}
}

// Sub computes C = A - B element-wise.
func Sub(C, A, B *matrix.Matrix) {
	h, w := A.Size(0), A.Size(1)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			C.SetAt(i, j, A.At(i, j)-B.At(i, j))
		}
	}
}

func checkMulShapes(C, A, B *matrix.Matrix) {
	if A.Size(1) != B.Size(0) || C.Size(0) != A.Size(0) || C.Size(1) != B.Size(1) {
		panic("linalg: incompatible multiply shapes")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
