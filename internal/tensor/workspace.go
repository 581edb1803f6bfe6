// Inference workspace: a per-goroutine arena of reusable scratch buffers for
// the NoGrad fast path (fused.go). Unlike the sync.Pool arena behind
// allocData, a Workspace hands out buffers without zeroing them and takes
// them all back in one Reset, so a fused forward pass performs near-zero
// heap allocation once the workspace is warm.
package tensor

import (
	"math/bits"
	"sync"
)

// Workspace is a grow-only arena of scratch buffers keyed by size class
// (wsClass): a batched forward's buffer lengths follow the token count of
// whichever chunks happened to merge, so keying by exact length would miss —
// and allocate and page in a fresh buffer — on nearly every new batch
// composition. It is NOT safe for concurrent use; acquire one per goroutine with
// AcquireWorkspace and return it with ReleaseWorkspace. Buffers obtained
// from Take are valid until the next Reset (ReleaseWorkspace resets).
type Workspace struct {
	free map[int][][]float64
	used [][]float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][][]float64)}
}

// Take returns a scratch slice of length n with UNSPECIFIED contents; the
// caller must fully overwrite it. The slice belongs to the workspace until
// the next Reset.
func (w *Workspace) Take(n int) []float64 {
	c := wsClass(n)
	if l := w.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		w.free[c] = l[:len(l)-1]
		w.used = append(w.used, b)
		return b[:n]
	}
	b := make([]float64, c)
	w.used = append(w.used, b)
	return b[:n]
}

// wsClass rounds a buffer length up to its size class: eight classes per
// power of two, so a buffer is at most 1/8 larger than asked for.
func wsClass(n int) int {
	if n <= 64 {
		return 64
	}
	shift := bits.Len(uint(n-1)) - 4
	return ((n-1)>>shift + 1) << shift
}

// TakeZero is Take with the buffer cleared.
func (w *Workspace) TakeZero(n int) []float64 {
	b := w.Take(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// Matrix wraps a Take buffer in a leaf tensor (no parents, no grad). The
// tensor must not outlive the next Reset; ReleaseGraph skips it because
// leaves are never freed.
func (w *Workspace) Matrix(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: w.Take(rows * cols)}
}

// Reset reclaims every buffer handed out since the previous Reset. Any
// slice or Matrix obtained earlier becomes invalid for reading or writing.
func (w *Workspace) Reset() {
	for _, b := range w.used {
		w.free[cap(b)] = append(w.free[cap(b)], b)
	}
	w.used = w.used[:0]
}

// wsPool recycles workspaces across goroutines; in steady state each worker
// goroutine ends up reusing a warm workspace (sync.Pool is per-P), which is
// what gives the pipeline's inference workers allocation-free forwards.
var wsPool = sync.Pool{New: func() interface{} { return NewWorkspace() }}

// AcquireWorkspace returns a workspace for exclusive use by the calling
// goroutine. Pair with ReleaseWorkspace.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace resets ws and returns it to the shared pool. Every
// buffer taken from it is invalidated; arena-backed op outputs built with
// InferenceResult are unaffected.
func ReleaseWorkspace(ws *Workspace) {
	ws.Reset()
	wsPool.Put(ws)
}
