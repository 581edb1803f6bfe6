// Gradient plumbing for the data-parallel training runtime: helpers that
// let several gradient workers run forward+backward over shared weights
// without ever writing the same Tensor.Grad concurrently.
//
// The pattern (internal/train): worker 0 trains against the canonical model
// directly; every other worker builds a replica model whose parameter
// tensors alias the canonical Data buffers (AliasData) but own their Grad
// buffers, drawn from the PR 1 buffer arena (AttachGrads). After each
// mini-batch the trainer reduces the workers' gradients into the canonical
// parameters in a fixed tree order (AccumGrads) and takes one optimizer
// step, so results are bit-reproducible for a given (seed, workers) pair.
package tensor

import "fmt"

// AliasData points each dst parameter's Data at the matching src
// parameter's buffer, so a replica model shares the canonical weights
// (reads see every optimizer step) while keeping its own gradient state.
// Panics on length or shape mismatch.
func AliasData(dst, src []*Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AliasData length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, d := range dst {
		s := src[i]
		if d.Rows != s.Rows || d.Cols != s.Cols {
			panic(fmt.Sprintf("tensor: AliasData param %d shape %dx%d vs %dx%d", i, d.Rows, d.Cols, s.Rows, s.Cols))
		}
		d.Data = s.Data
	}
}

// AccumGrads adds each src parameter's gradient into the matching dst
// parameter's gradient, allocating dst buffers on demand; src entries with
// nil gradients are skipped. Large gradients are sharded across free cores
// (parallelRows) — the update is elementwise, so the result is bitwise
// identical to the sequential path.
func AccumGrads(dst, src []*Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AccumGrads length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, s := range src {
		if s.Grad == nil {
			continue
		}
		d := dst[i]
		if len(d.Data) != len(s.Data) {
			panic(fmt.Sprintf("tensor: AccumGrads param %d size %d vs %d", i, len(d.Data), len(s.Data)))
		}
		d.ensureGrad()
		dg, sg := d.Grad, s.Grad
		parallelRows(len(sg), 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dg[j] += sg[j]
			}
		})
	}
}

// ScaleGrads multiplies every present gradient by s (sharded, elementwise,
// bit-exact under any parallelism). Used to average accumulated worker
// gradients before an optimizer step and by gradient clipping.
func ScaleGrads(params []*Tensor, s float64) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad
		parallelRows(len(g), 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g[j] *= s
			}
		})
	}
}

// ZeroGrads clears every present gradient, sharding large buffers across
// free cores (parallelRows).
func ZeroGrads(params []*Tensor) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad
		parallelRows(len(g), 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g[j] = 0
			}
		})
	}
}

// GradArena pins pooled gradient buffers onto a gradient worker's replica
// parameters: each param gets a zeroed Grad slice drawn from the buffer
// arena, so per-worker gradient state recycles the same pool as op outputs
// instead of growing the heap per worker. Release returns the buffers.
type GradArena struct {
	params []*Tensor
}

// AttachGrads allocates a pooled, zeroed gradient buffer for every param
// that lacks one and returns the arena managing them.
func AttachGrads(params []*Tensor) *GradArena {
	for _, p := range params {
		if p.Grad == nil {
			p.Grad, p.gradPooled = allocData(len(p.Data))
		}
	}
	return &GradArena{params: params}
}

// Zero clears the arena's gradient buffers (sharded).
func (a *GradArena) Zero() { ZeroGrads(a.params) }

// Release returns the pooled gradient buffers to the arena and detaches
// them from the parameters. The arena must not be used afterwards.
func (a *GradArena) Release() {
	for _, p := range a.params {
		if p.gradPooled && p.Grad != nil {
			freeData(p.Grad)
		}
		p.Grad = nil
		p.gradPooled = false
	}
	a.params = nil
}
