//go:build !amd64

package tensor

// Non-amd64 platforms have no SIMD int8 kernels (haveAVX2 is false, so the
// quantized path is never selected), but the generic kernels keep the package
// compiling and testable.

func dotQuad(x, w []int8, stride, n int, sums *[4]int32) {
	dotQuadGeneric(x, w, stride, n, sums)
}

func dotQuadW(x []int16, w []int8, stride, n int, sums *[4]int32) {
	dotQuadWGeneric(x, w, stride, n, sums)
}

func expGrid(s []float64, maxv float64, pq []int16) int {
	return expGridGeneric(s, maxv, pq)
}
