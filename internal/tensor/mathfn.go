package tensor

import "math"

// Exp returns eˣ with the bits math.Exp has on amd64 where it takes its FMA
// branch ($GOROOT/src/math/exp_amd64.s, after SLEEF), on every host. The
// library branches on the host's FMA bit, and its branches differ in the last
// place on 9.3 % of softmax-range arguments, so the repo owns the function:
// each fused step is math.FMA (correctly rounded in hardware and in software
// alike), each separately rounded product an explicit conversion, which no
// compiler may contract. The vector exp and GELU kernels replay it.
func Exp(x float64) float64 {
	const (
		log2e, overflow = 1.4426950408889634073599246810018920, 7.09782712893384e+02
		ln2U            = 0.69314718055966295651160180568695068359375
		ln2L            = 0.28235290563031577122588448175013436025525412068e-12
	)
	switch bits := math.Float64bits(x); {
	case bits == 0xfff0000000000000: // −Inf
		return 0
	case bits&^(1<<63) >= 0x7ff0000000000000: // NaN or +Inf, as it is
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even, and out of int32's range gives the
	// integer indefinite, which underflows below.
	k := int32(math.MinInt32)
	if t := math.RoundToEven(float64(x * log2e)); t >= math.MinInt32 && t <= math.MaxInt32 {
		k = int32(t)
	}
	kf := float64(k)
	r := float64(math.FMA(-kf, ln2L, math.FMA(-kf, ln2U, x)) * 0.0625) // (x − k·ln2)/16
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = math.FMA(p, r, c)
	}
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		r = float64(r * (r + 2))
	}
	r = math.FMA(r, r+2, 1)
	// r·2ᵏ with 2ᵏ built in the exponent field; a subnormal result in two
	// steps, the second of which rounds.
	switch e := k + 0x3ff; {
	case e >= 0x7ff:
		return math.Inf(1)
	case e < -52:
		return 0
	case e <= 0:
		return float64(float64(r*math.Float64frombits(uint64(e+0x3fe)<<52)) * 0x1p-1022)
	default:
		return float64(r * math.Float64frombits(uint64(e)<<52))
	}
}

// fma is x·y + z with one rounding, the step of every mul-add chain in the
// Go kernels (the assembly's VFMADD231PD). It is math.FMA, which is hardware
// on amd64 with FMA, arm64, ppc64le, s390x and riscv64, and software
// elsewhere (GODEBUG=cpu.fma=off included). The software path computes x·y +
// z in two steps when z is a zero, so an x·y that underflows to −0 plus a +0
// accumulator gives +0 there, where the one rounding — the hardware's answer
// — keeps the exact product's sign. The branch below gives that answer on
// both: with z and the result zero and x, y not, the exact sum is x·y, and
// rounding it is rounding the product.
func fma(x, y, z float64) float64 {
	if r := math.FMA(x, y, z); r != 0 || z != 0 || x == 0 || y == 0 {
		return r
	}
	return x * y
}

// tanh is math.tanh's arms in its order, over Exp, with every product that
// feeds a sum rounded on its own (as the GELU kernel's VMULPD/VADDPD are).
// Tanh is the graph op.
func tanh(x float64) float64 {
	const (
		p0, p1, p2 = -9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3
		q0, q1, q2 = 1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3
	)
	switch z := math.Abs(x); {
	case z > 0.5*8.8029691931113054295988e+01: // ½·log(2¹²⁷)
		return math.Copysign(1, x)
	case z >= 0.625:
		return math.Copysign(1-2/(Exp(2*z)+1), x)
	case x == 0:
		return x
	}
	s := float64(x * x)
	p := float64(float64(float64(p0*s)+p1)*s) + p2
	q := float64(float64(float64((s+q0)*s)+q1)*s) + q2
	return x + x*s*p/q
}
