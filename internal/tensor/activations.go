package tensor

import "math"

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += g
				}
			}
		}
	}
	return out
}

// GELU applies the Gaussian Error Linear Unit using the tanh approximation
// used by BERT-family models.
func GELU(a *Tensor) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	copy(out.Data, a.Data)
	geluRow(out.Data)
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				x := a.Data[i]
				inner := geluC * (x + 0.044715*x*x*x)
				t := math.Tanh(inner) // training only: may keep the library's (DESIGN.md §8)
				sech2 := 1 - t*t
				d := 0.5*(1+t) + 0.5*x*sech2*geluC*(1+3*0.044715*x*x)
				a.Grad[i] += g * d
			}
		}
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learnable per-column scale (gamma, 1×cols) and shift (beta, 1×cols).
func LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	if gamma.Rows != 1 || gamma.Cols != a.Cols || beta.Rows != 1 || beta.Cols != a.Cols {
		panic("tensor: LayerNorm gamma/beta must be 1×cols")
	}
	out := result(a.Rows, a.Cols, []*Tensor{a, gamma, beta}, nil)
	n := float64(a.Cols)
	means := make([]float64, a.Rows)
	invStds := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		m := 0.0
		for _, v := range arow {
			m += v
		}
		m /= n
		vsum := 0.0
		for _, v := range arow {
			d := v - m
			vsum += float64(d * d) // rounded before the add on every build, as FusedAddLayerNormInto does
		}
		inv := 1 / math.Sqrt(vsum/n+eps)
		means[i], invStds[i] = m, inv
		orow := out.Row(i)
		for j, v := range arow {
			orow[j] = float64((v-m)*inv*gamma.Data[j]) + beta.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < a.Rows; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				grow := out.Grad[i*out.Cols : (i+1)*out.Cols]
				m, inv := means[i], invStds[i]
				if gamma.requiresGrad || beta.requiresGrad {
					if gamma.requiresGrad {
						gamma.ensureGrad()
					}
					if beta.requiresGrad {
						beta.ensureGrad()
					}
					for j, g := range grow {
						xhat := (arow[j] - m) * inv
						if gamma.requiresGrad {
							gamma.Grad[j] += g * xhat
						}
						if beta.requiresGrad {
							beta.Grad[j] += g
						}
					}
				}
				if a.requiresGrad {
					a.ensureGrad()
					agrow := a.Grad[i*a.Cols : (i+1)*a.Cols]
					// dL/dx = inv/n * (n*dy*γ − Σ(dy*γ) − xhat * Σ(dy*γ*xhat))
					sumG, sumGX := 0.0, 0.0
					for j, g := range grow {
						gg := g * gamma.Data[j]
						xhat := (arow[j] - m) * inv
						sumG += gg
						sumGX += gg * xhat
					}
					for j, g := range grow {
						gg := g * gamma.Data[j]
						xhat := (arow[j] - m) * inv
						agrow[j] += inv / n * (n*gg - sumG - xhat*sumGX)
					}
				}
			}
		}
	}
	return out
}
