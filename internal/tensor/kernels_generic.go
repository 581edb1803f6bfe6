//go:build !amd64

package tensor

// Non-amd64 platforms have no assembly kernels: the Go implementations run
// everywhere. The selection flags (kernels_amd64.go) are variables, not
// constants, so the in-package tests that flip them compile on every platform.
var haveAVX2, haveAVX512 = false, false

func mulRowRange(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool, bias []float64) {
	mulRowRangeGeneric(out, a, b, lo, hi, k, n, bstride, c0, zero, bias)
}

func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
}

func expSubRow(p []float64, sub float64) { expSubRowGo(p, sub) }

func attnBlocks(*Workspace, []float64, []float64, []float64, AttnShape, []AttnSpan) bool {
	return false
}

func geluRow(p []float64) { geluRowGo(p) }

// Kernels names the kernels this process runs (see kernels_amd64.go).
func Kernels() string { return "go (no AVX2)" }
