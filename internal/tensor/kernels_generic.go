//go:build !amd64

package tensor

// Non-amd64 platforms have no assembly kernels: the Go implementations run
// everywhere and the quantized path (QuantizeAvailable) is never selected.
// A variable, not a constant, so the in-package tests that flip it compile
// on every platform.
var haveAVX2 = false

func mulRowRange(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool) {
	mulRowRangeGeneric(out, a, b, lo, hi, k, n, bstride, c0, zero)
}

func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
}
