//go:build !amd64

package tensor

import "testing"

// kernelRankBlock is all of k: the Go kernels take K in one pass.
func kernelRankBlock(t testing.TB, rows, k, n, bstride int) int { return k }
