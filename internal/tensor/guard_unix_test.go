//go:build unix

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardBuf is scratch memory whose last byte is followed by an inaccessible
// page: a slice cut from its end is sized exactly, in hardware — a kernel
// that reads or writes one element past it faults instead of passing.
type guardBuf struct {
	mem   []byte
	limit int // bytes before the guard page
}

func newGuardBuf(t testing.TB, floats int) *guardBuf {
	t.Helper()
	page := syscall.Getpagesize()
	limit := (floats*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, limit+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[limit:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a failed unmap only leaks test scratch
	return &guardBuf{mem: mem, limit: limit}
}

// tail returns the n float64s that end where the guard page begins.
func (g *guardBuf) tail(n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&g.mem[g.limit-8*n])), n)
}
