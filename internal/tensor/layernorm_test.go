package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// lnCase is one FusedAddLayerNormInto call; checkLayerNorm runs it through
// addLayerNormGo and every kernel the machine has.
type lnCase struct {
	rows, cols int
	eps        float64
	noB        bool // plain LayerNorm(a)
	alias      int  // 0: dst is its own buffer; 1: dst is a; 2: dst is b
	specials   int  // fillKernelInput's `every`
}

type lnBufs struct{ dst, a, b, gamma, beta *guardBuf }

const maxLNRows, maxLNCols = 20, 320

func newLNBufs(t testing.TB, rows, cols int) lnBufs {
	n := rows * cols
	return lnBufs{
		dst: newGuardBuf(t, n), a: newGuardBuf(t, n), b: newGuardBuf(t, n),
		gamma: newGuardBuf(t, cols), beta: newGuardBuf(t, cols),
	}
}

// checkLayerNorm places every operand so that it ends at a guard page, so a
// kernel that reads or writes past rows·cols elements (or cols of gamma and
// beta) faults, and compares every kernel's output with the Go body's bit
// for bit.
func checkLayerNorm(t testing.TB, bufs lnBufs, rng *rand.Rand, c lnCase) {
	t.Helper()
	n := c.rows * c.cols
	a0, b0 := make([]float64, n), make([]float64, n)
	fillKernelInput(rng, a0, c.specials)
	fillKernelInput(rng, b0, c.specials)
	gamma, beta := bufs.gamma.tail(c.cols), bufs.beta.tail(c.cols)
	fillKernelInput(rng, gamma, c.specials)
	fillKernelInput(rng, beta, c.specials)

	// run calls FusedAddLayerNormInto, or the Go body, on fresh copies of
	// the operands laid out as the case says.
	run := func(f func(dst, a, b, gamma, beta []float64, rows, cols int, eps float64)) []float64 {
		a, b := bufs.a.tail(n), bufs.b.tail(n)
		copy(a, a0)
		copy(b, b0)
		dst := bufs.dst.tail(n)
		switch c.alias {
		case 1:
			dst = a
		case 2:
			dst = b
		}
		if c.noB {
			b = nil
		}
		f(dst, a, b, gamma, beta, c.rows, c.cols, c.eps)
		return append([]float64(nil), dst...)
	}
	want := run(addLayerNormGo)
	for _, kc := range kernelChoices {
		if kc.missing() != "" {
			continue
		}
		var got []float64
		kc.with(t, func() { got = run(FusedAddLayerNormInto) })
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%+v on %s: dst[%d] (row %d, col %d) = %v (%#x), the Go body gives %v (%#x)",
				c, kc.name, i, i/c.cols, i%c.cols, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Property: the AVX-512 kernel equals the Go body in every bit over random
// shapes — every row count of an eight-row block and its tail lanes, column
// counts with and without a masked tail — with b or without, dst its own
// buffer or a or b, and planted zeros, −0.0, ±Inf, NaN and subnormals.
func TestLayerNormRowsBitExact(t *testing.T) {
	bufs := newLNBufs(t, maxLNRows, maxLNCols)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 600; trial++ {
		c := lnCase{
			rows: 1 + rng.Intn(maxLNRows), cols: 1 + rng.Intn(maxLNCols),
			eps: []float64{1e-5, 1e-12, 0, 1}[rng.Intn(4)], noB: rng.Intn(3) == 0, alias: rng.Intn(3),
		}
		switch trial % 3 {
		case 1:
			c.specials = 40
		case 2:
			c.specials = 3
		}
		checkLayerNorm(t, bufs, rng, c)
	}
	// The models' shapes: a metadata forward (30 rows), a content forward
	// (108 rows) at the repro width, and the paper's width.
	for _, c := range []lnCase{{rows: 30, cols: 64, eps: 1e-12}, {rows: 108, cols: 64, eps: 1e-12, alias: 1}, {rows: 13, cols: 312, eps: 1e-12, noB: true}} {
		checkLayerNorm(t, newLNBufs(t, c.rows, c.cols), rng, c)
	}
}

// FuzzLayerNormRows runs random shapes (rows 1–20, cols 1–320) against the
// Go body on every kernel, with NaN, ±Inf, −0 and subnormals planted, any
// eps, b nil or not, and dst aliasing a or b.
func FuzzLayerNormRows(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0), uint8(0), 1e-12)
	f.Add(int64(2), uint8(7), uint16(63), uint8(1), uint8(3), 1e-5)
	f.Add(int64(3), uint8(8), uint16(64), uint8(2), uint8(2), 0.0)
	f.Add(int64(4), uint8(19), uint16(319), uint8(3), uint8(12), 1.0)
	f.Add(int64(5), uint8(16), uint16(311), uint8(4), uint8(1), math.Inf(1))
	f.Add(int64(6), uint8(9), uint16(8), uint8(5), uint8(5), math.NaN())
	f.Add(int64(7), uint8(2), uint16(1), uint8(0), uint8(2), -1e-12)
	bufs := newLNBufs(f, maxLNRows, maxLNCols)
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, cols uint16, mode, specials uint8, eps float64) {
		rng := rand.New(rand.NewSource(seed))
		c := lnCase{
			rows: 1 + int(rows)%maxLNRows, cols: 1 + int(cols)%maxLNCols, eps: eps,
			noB: mode&4 != 0, alias: int(mode&3) % 3, specials: int(specials) % 16,
		}
		checkLayerNorm(t, bufs, rng, c)
	})
}
