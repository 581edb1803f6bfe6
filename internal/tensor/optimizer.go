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

// SGD is a plain stochastic-gradient-descent optimizer with optional
// momentum; kept as a baseline and for the lightweight online feedback
// updates in the Taste detector.
type SGD struct {
	LR       float64
	Momentum float64

	params []*Tensor
	vel    [][]float64 // momentum buffers, drawn from the arena
}

// NewSGD creates an SGD optimizer over params. Release returns its momentum
// buffers to the arena.
func NewSGD(params []*Tensor, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, params: params}
	if momentum > 0 {
		s.vel = make([][]float64, len(params))
		for i, p := range params {
			s.vel[i], _ = allocData(len(p.Data))
		}
	}
	return s
}

// Release returns the momentum buffers to the arena. The optimizer must not
// step afterwards.
func (s *SGD) Release() {
	for _, v := range s.vel {
		freeData(v)
	}
	s.vel = nil
}

// Step applies one SGD update.
func (s *SGD) Step() {
	for i, p := range s.params {
		if p.Grad == nil {
			continue
		}
		if s.Momentum > 0 {
			v := s.vel[i]
			for j, g := range p.Grad {
				v[j] = s.Momentum*v[j] + g
				p.Data[j] -= s.LR * v[j]
			}
		} else {
			for j, g := range p.Grad {
				p.Data[j] -= s.LR * g
			}
		}
	}
}

// ZeroGrads clears all parameter gradients.
func (s *SGD) ZeroGrads() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}
