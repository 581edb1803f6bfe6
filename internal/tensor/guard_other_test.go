//go:build !unix

package tensor

import "testing"

// guardBuf without page protection: slices are sized exactly but an
// over-read is not trapped here (guard_unix_test.go traps it).
type guardBuf struct{ mem []float64 }

func newGuardBuf(t testing.TB, floats int) *guardBuf {
	return &guardBuf{mem: make([]float64, floats)}
}

func (g *guardBuf) tail(n int) []float64 { return g.mem[len(g.mem)-n:] }
