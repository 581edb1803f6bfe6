package tensor

import "math"

// adamMulAddsPerElem is the per-element cost estimate fed to the runtime's
// sharding heuristic: one Adam element touches m, v, grad and data with a
// sqrt, worth roughly eight scalar multiply-adds.
const adamMulAddsPerElem = 8

// normChunkElems is the block size of the global-norm reduction: gradients
// are reduced in fixed 4096-element chunk partials combined in chunk order
// (per parameter, parameters in order), so the summation order — and hence
// the bit pattern of the norm — is independent of how many workers computed
// the partials.
const normChunkElems = 1 << 12

// Adam implements the Adam optimizer (Kingma & Ba) with optional decoupled
// weight decay (AdamW) and global-norm gradient clipping, the configuration
// used to fine-tune all models in this reproduction.
//
// The elementwise update, the gradient-clip rescale and ZeroGrads shard
// large parameters across free cores (parallelRows, with the same
// small-size sequential fallback as the matmul kernels); the global-norm
// reduction uses a fixed blocked summation order so the parallel and
// sequential paths agree bitwise.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	// ClipNorm, when positive, rescales gradients so their global L2 norm
	// does not exceed it.
	ClipNorm float64

	params []*Tensor
	m, v   [][]float64
	t      int

	lastNorm float64
	chunks   [][]float64 // scratch: per-chunk gradient views for the norm
	partials []float64   // scratch: per-chunk sums of squares
}

// NewAdam creates an Adam optimizer over params with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Data))
		a.v[i] = make([]float64, len(p.Data))
	}
	return a
}

// LastGradNorm returns the pre-clip global gradient L2 norm computed by the
// most recent Step, or zero if no clipping Step has run yet. Only meaningful
// when ClipNorm > 0 (the norm is not computed otherwise).
func (a *Adam) LastGradNorm() float64 { return a.lastNorm }

// Step applies one Adam update.
func (a *Adam) Step() {
	a.t++
	if a.ClipNorm > 0 {
		a.clip()
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		grad, data := p.Grad, p.Data
		parallelRows(len(grad), adamMulAddsPerElem, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g := grad[j]
				m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
				v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
				mh := m[j] / bc1
				vh := v[j] / bc2
				upd := a.LR * mh / (math.Sqrt(vh) + a.Eps)
				if a.WeightDecay > 0 {
					upd += a.LR * a.WeightDecay * data[j]
				}
				data[j] -= upd
			}
		})
	}
}

// gradNorm computes the global L2 norm of all parameter gradients. Each
// gradient is reduced in normChunkElems-sized partial sums and the partials
// are combined in a fixed order (chunk order within a parameter, parameters
// in order), so the result is bitwise identical whether the partials were
// computed sequentially or on borrowed cores.
func (a *Adam) gradNorm() float64 {
	chunks := a.chunks[:0]
	for _, p := range a.params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad
		for lo := 0; lo < len(g); lo += normChunkElems {
			hi := lo + normChunkElems
			if hi > len(g) {
				hi = len(g)
			}
			chunks = append(chunks, g[lo:hi])
		}
	}
	a.chunks = chunks
	if cap(a.partials) < len(chunks) {
		a.partials = make([]float64, len(chunks))
	}
	partials := a.partials[:len(chunks)]
	parallelRows(len(chunks), normChunkElems, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for _, g := range chunks[i] {
				s += g * g
			}
			partials[i] = s
		}
	})
	total := 0.0
	for _, s := range partials {
		total += s
	}
	return math.Sqrt(total)
}

func (a *Adam) clip() {
	norm := a.gradNorm()
	a.lastNorm = norm
	if norm <= a.ClipNorm || norm == 0 {
		return
	}
	ScaleGrads(a.params, a.ClipNorm/norm)
}
