// Package tensor implements a small dense 2-D tensor library with reverse-mode
// automatic differentiation, sufficient to train and run the Transformer-based
// models used by the Taste reproduction. The design is a dynamic tape: each
// operation allocates a result tensor that records its parents and a backward
// closure; Backward performs a topological sweep that accumulates gradients.
//
// Tensors are row-major matrices of float64. Sequence data is represented as
// one row per position (rows = sequence length, cols = hidden size), which is
// the only layout the Taste models need. Heads in multi-head attention are
// handled by column slicing in package nn.
//
// Concurrency: building a graph is not goroutine-safe, but distinct graphs can
// be built and evaluated concurrently as long as shared leaf tensors (model
// parameters) are only read. Inference paths use NoGrad tensors so that no
// backward state is written to shared parameters.
//
// Compute runtime (runtime.go): the matmul kernels row-shard onto free
// cores, at most GOMAXPROCS−1 borrowed goroutines process-wide with the
// rest of the shards on their caller, with a sequential fallback below a
// work threshold; op-output buffers come from a sync.Pool arena recycled
// via ReleaseGraph after each training step or inference pass.
package tensor

import "fmt"

// Tensor is a dense row-major matrix that optionally participates in the
// autograd graph.
type Tensor struct {
	Rows, Cols int
	Data       []float64

	// Grad holds the accumulated gradient of some scalar loss with respect
	// to Data. It is allocated lazily by Backward and is nil for tensors
	// that do not require gradients.
	Grad []float64

	requiresGrad bool
	parents      []*Tensor
	backward     func()

	// pooled/gradPooled mark Data/Grad as drawn from the buffer arena, so
	// ReleaseGraph knows which slices to recycle.
	pooled     bool
	gradPooled bool
}

// New returns a zero-initialized tensor with the given shape.
// It panics if rows or cols are not positive.
func New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a tensor from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("tensor: FromRows requires at least one non-empty row")
	}
	t := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != t.Cols {
			panic(fmt.Sprintf("tensor: row %d has %d values, want %d", i, len(r), t.Cols))
		}
		copy(t.Data[i*t.Cols:(i+1)*t.Cols], r)
	}
	return t
}

// Param returns a zero tensor marked as requiring gradients; it is the
// constructor for trainable parameters.
func Param(rows, cols int) *Tensor {
	t := New(rows, cols)
	t.requiresGrad = true
	return t
}

// SetRequiresGrad toggles gradient tracking for a leaf tensor.
func (t *Tensor) SetRequiresGrad(v bool) { t.requiresGrad = v }

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Row returns a view (not a copy) of row i.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// Detach returns a view of the same data that is cut off from the graph.
// Mutating one mutates the other. A detached view must not outlive a
// ReleaseGraph of the producing graph — the underlying buffer is recycled.
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Item returns the single element of a 1x1 tensor, panicking otherwise.
func (t *Tensor) Item() float64 {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("tensor: Item on %dx%d tensor", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
}

// ensureGrad allocates the gradient buffer if needed. Op outputs draw from
// the arena (their grads die with the graph); leaves get plain slices that
// persist across steps.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		if t.parents != nil {
			t.Grad, t.gradPooled = allocData(len(t.Data))
		} else {
			t.Grad = make([]float64, len(t.Data))
		}
	}
}

// result builds an op output tensor: it requires grad when any parent does,
// and records the backward closure only in that case. When no parent tracks
// gradients the op degenerates to a plain forward computation, which keeps
// inference cheap and safe for concurrent use of shared parameters. Parents
// are always recorded so ReleaseGraph can walk inference graphs too, and
// the data buffer is drawn from the arena so release can recycle it.
func result(rows, cols int, parents []*Tensor, backward func()) *Tensor {
	data, pooled := allocData(rows * cols)
	out := &Tensor{Rows: rows, Cols: cols, Data: data, pooled: pooled, parents: parents}
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.backward = backward
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a scalar
// (1x1). Gradients accumulate into every reachable tensor that requires them.
func (t *Tensor) Backward() {
	if t.Rows != 1 || t.Cols != 1 {
		panic("tensor: Backward requires a scalar (1x1) tensor")
	}
	if !t.requiresGrad {
		panic("tensor: Backward on a tensor that does not require grad")
	}
	order := topoSort(t)
	for _, n := range order {
		n.ensureGrad()
	}
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// topoSort returns the nodes reachable from root in topological order
// (parents before children).
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	visited := make(map[*Tensor]bool)
	// Iterative DFS to avoid stack overflow on deep graphs.
	type frame struct {
		node *Tensor
		idx  int
	}
	stack := []frame{{root, 0}}
	inStack := map[*Tensor]bool{root: true}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(f.node.parents) {
			p := f.node.parents[f.idx]
			f.idx++
			if !visited[p] && !inStack[p] && p.requiresGrad {
				stack = append(stack, frame{p, 0})
				inStack[p] = true
			}
			continue
		}
		visited[f.node] = true
		inStack[f.node] = false
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
