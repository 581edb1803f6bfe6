package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The exp and GELU row kernels are held to the package's own functions:
// expSubRow must equal Exp(p[j] − sub) and geluRow must equal geluScalar
// (which calls tanh) in every bit, on every kernel choice. Those two are tied
// to the library once, by TestExpAndTanhMatchTheLibrary.

// mathRowChecker runs rows through a kernel with the row ending at a guard
// page (a read or write past it faults) and compares every element with the
// scalar reference.
type mathRowChecker struct {
	buf  *guardBuf
	want []float64
	n    int // arguments checked
}

const maxMathRow = 70

func newMathRowChecker(t testing.TB) *mathRowChecker {
	return &mathRowChecker{buf: newGuardBuf(t, maxMathRow), want: make([]float64, maxMathRow)}
}

func (c *mathRowChecker) exp(t testing.TB, args []float64, sub float64) {
	t.Helper()
	got, want := c.buf.tail(len(args)), c.want[:len(args)]
	copy(got, args)
	for j, v := range args {
		want[j] = Exp(v - sub)
	}
	expSubRow(got, sub)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("expSubRow, %d elements, sub %v: element %d, exp(%v = %#x) = %#x, Exp gives %#x",
			len(args), sub, i, args[i]-sub, math.Float64bits(args[i]-sub), math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	c.n += len(args)
}

func (c *mathRowChecker) gelu(t testing.TB, args []float64) {
	t.Helper()
	got, want := c.buf.tail(len(args)), c.want[:len(args)]
	copy(got, args)
	for j, v := range args {
		want[j] = geluScalar(v)
	}
	geluRow(got)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("geluRow, %d elements: element %d, gelu(%v = %#x) = %#x, the scalar expression gives %#x",
			len(args), i, args[i], math.Float64bits(args[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	c.n += len(args)
}

// mathRowBatterySize is how many random arguments a battery draws: more than
// 10⁷ where the vector kernels run, a twentieth of that where both sides of
// the comparison are the scalar calls (or under -short).
func mathRowBatterySize() int {
	if testing.Short() || !haveAVX2 {
		return 510_000
	}
	return 10_200_000
}

// neighbours returns x with the three floats on either side of it.
func neighbours(x float64) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < 3; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// binadeEdges returns, for every exponent and both signs, the first and last
// float of the binade.
func binadeEdges() []float64 {
	var out []float64
	for e := uint64(0); e < 0x7ff; e++ {
		for _, sign := range []uint64{0, 1 << 63} {
			out = append(out, math.Float64frombits(sign|e<<52), math.Float64frombits(sign|e<<52|(1<<52-1)))
		}
	}
	return out
}

// expEdgeArgs are the arguments where Exp changes behaviour: the cuts of
// the kernel's vector range and of Exp's overflow, denormal and underflow
// exits with their neighbours on both sides, the arguments whose x·LOG2E
// falls within a few ulps of k + ½ for every exponent k the result can carry
// (where the round-to-nearest-even conversion decides k), every binade edge,
// and the specials.
func expEdgeArgs() []float64 {
	var out []float64
	for _, cut := range []float64{708, -708, 709.782712893384, 7.09782712893384e+02, -745.1332191019411, -745.1332191019412, -709, -710, -744, 1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2} {
		out = append(out, neighbours(cut)...)
	}
	for k := -1075; k <= 1024; k++ {
		out = append(out, neighbours((float64(k)+0.5)/math.Log2E)...)
		out = append(out, neighbours((float64(k)+0.5)*math.Ln2)...)
	}
	out = append(out, binadeEdges()...)
	return append(out, kernelSpecials...)
}

// shuffledRows feeds args to check in rows of every length up to maxMathRow,
// in an order drawn from rng, so each argument meets every kind of block
// neighbour.
func shuffledRows(rng *rand.Rand, args []float64, check func(row []float64)) {
	args = append([]float64(nil), args...)
	rng.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
	for n := 0; len(args) > 0; n = (n + 1) % (maxMathRow + 1) {
		row := args[:min(n, len(args))]
		check(row)
		args = args[len(row):]
	}
}

// Property: expSubRow equals Exp(p[j] − sub) in every bit over more
// than 10⁷ arguments — softmax-shaped rows (scores at or below a seeded max,
// at four temperatures), uniform over ±720, raw random bit patterns and the
// edge set — in rows of every length 0–70 that end at a guard page.
func TestExpSubRowBitExact(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		c := newMathRowChecker(t)
		rng := rand.New(rand.NewSource(41))
		row := make([]float64, maxMathRow)
		total := mathRowBatterySize()
		for trial := 0; c.n < total; trial++ {
			row := row[:trial%(maxMathRow+1)]
			sub := 0.0
			switch trial % 4 {
			case 0, 1:
				sub = rng.NormFloat64() * 10
				lambda := []float64{1, 4, 20, 200}[trial/4%4]
				for j := range row {
					row[j] = sub - rng.ExpFloat64()*lambda
				}
			case 2:
				for j := range row {
					row[j] = (rng.Float64()*2 - 1) * 720
				}
			case 3:
				for j := range row {
					row[j] = math.Float64frombits(rng.Uint64())
				}
			}
			c.exp(t, row, sub)
		}
		edges := expEdgeArgs()
		for _, sub := range []float64{0, 0, 2.5, -700, math.Inf(-1), math.Inf(1), math.NaN()} {
			shuffledRows(rng, edges, func(row []float64) { c.exp(t, row, sub) })
		}
		t.Logf("%d arguments", c.n)
	})
}

// Every length 0–70 with one special argument at every position: each tail
// length, each lane a special can take inside a block (full or masked), and
// the blocks before and after it still taken by whichever kernel runs.
func TestExpSubRowEveryLengthAndLane(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		c := newMathRowChecker(t)
		rng := rand.New(rand.NewSource(42))
		specials := append([]float64{709, -709, -745, -746, 708.0000000000001, -708.0000000000001}, kernelSpecials...)
		row := make([]float64, maxMathRow)
		for n := 0; n <= maxMathRow; n++ {
			for pos := -1; pos < n; pos++ {
				for j := range row[:n] {
					row[j] = -rng.ExpFloat64() * 5
				}
				if pos >= 0 {
					row[pos] = specials[rng.Intn(len(specials))]
				}
				c.exp(t, row[:n], 0)
			}
		}
	})
}

// geluArgAt returns the smallest v ≥ 0 whose tanh argument
// c·(v + 0.044715·v³) reaches u (the argument is monotone in v).
func geluArgAt(u float64) float64 {
	inner := func(v float64) float64 { return geluC * (v + float64(0.044715*v*v*v)) }
	lo, hi := 0.0, 64.0
	for math.Nextafter(lo, hi) < hi {
		if mid := lo + (hi-lo)/2; inner(mid) >= u {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// geluEdgeArgs: the cut between tanh's arms (|u| = 0.625), the end of
// the kernel's vector range (44) and tanh's own saturation cut (0.5·MAXLOG)
// with their neighbours, of both signs; where the cube overflows; every
// binade edge and the specials.
func geluEdgeArgs() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var out []float64
	for _, u := range []float64{0.625, 44, halfMaxLog, 1, 20} {
		v := geluArgAt(u)
		out = append(out, neighbours(v)...)
		out = append(out, neighbours(-v)...)
	}
	for _, v := range []float64{0.625, 44, 1e102, 1e103, 5.6e102, 1.3e154, 1e-108, 1e-162} {
		out = append(out, neighbours(v)...)
		out = append(out, neighbours(-v)...)
	}
	out = append(out, binadeEdges()...)
	return append(out, kernelSpecials...)
}

// Property: geluRow equals the scalar GELU expression over tanh in
// every bit over more than 10⁷ arguments: pre-activation-shaped (normal, at
// four widths, so blocks of one arm, of the other and mixed all occur),
// uniform over ±12, raw random bit patterns and the edge set, in rows of
// every length 0–70 that end at a guard page.
func TestGELURowBitExact(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		c := newMathRowChecker(t)
		rng := rand.New(rand.NewSource(43))
		row := make([]float64, maxMathRow)
		total := mathRowBatterySize()
		for trial := 0; c.n < total; trial++ {
			row := row[:trial%(maxMathRow+1)]
			switch trial % 4 {
			case 0, 1:
				sigma := []float64{0.3, 1, 2.5, 8}[trial/4%4]
				for j := range row {
					row[j] = rng.NormFloat64() * sigma
				}
			case 2:
				for j := range row {
					row[j] = (rng.Float64()*2 - 1) * 12
				}
			case 3:
				for j := range row {
					row[j] = math.Float64frombits(rng.Uint64())
				}
			}
			c.gelu(t, row)
		}
		edges := geluEdgeArgs()
		for pass := 0; pass < 3; pass++ {
			shuffledRows(rng, edges, func(row []float64) { c.gelu(t, row) })
		}
		t.Logf("%d arguments", c.n)
	})
}

func TestGELURowEveryLengthAndLane(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		c := newMathRowChecker(t)
		rng := rand.New(rand.NewSource(44))
		specials := append([]float64{9.5, -9.5, 50, -50, 1e200, geluArgAt(44), -geluArgAt(44)}, kernelSpecials...)
		row := make([]float64, maxMathRow)
		for n := 0; n <= maxMathRow; n++ {
			for pos := -1; pos < n; pos++ {
				for j := range row[:n] {
					row[j] = rng.NormFloat64()
				}
				if pos >= 0 {
					row[pos] = specials[rng.Intn(len(specials))]
				}
				c.gelu(t, row[:n])
			}
		}
	})
}

// tanh hands a zero argument back as it is; the kernel lets −0 go
// through the rational, which makes it +0, because GELU cannot tell:
// 1 + (±0) is the same 1 and the result takes its zero's sign from 0.5·v.
func TestGELURowKeepsTheSignOfZero(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		row := []float64{negZero, 0, negZero, 0, negZero, 0, negZero}
		geluRow(row)
		for j, v := range row {
			if want := []float64{negZero, 0}[j%2]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("gelu(%v) at %d = %v, want the same zero", want, j, v)
			}
		}
	})
}

// mathRowFuzzRow builds a fuzz row: n arguments drawn by fill from seed, with
// plant overwriting position pos.
func mathRowFuzzRow(seed int64, n, pos uint8, plant float64, fill func(rng *rand.Rand) float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, int(n)%(maxMathRow+1))
	for j := range row {
		row[j] = fill(rng)
	}
	if len(row) > 0 {
		row[int(pos)%len(row)] = plant
	}
	return row
}

func FuzzExpRow(f *testing.F) {
	for i, x := range expEdgeArgs() {
		if i < 100 || i%499 == 0 { // the cuts, and a spread of the rest
			f.Add(int64(i), uint8(i), uint8(i/3), x, float64(i%5)-2)
		}
	}
	c := newMathRowChecker(f)
	f.Fuzz(func(t *testing.T, seed int64, n, pos uint8, plant, sub float64) {
		row := mathRowFuzzRow(seed, n, pos, plant, func(rng *rand.Rand) float64 { return sub - rng.ExpFloat64()*6 })
		c.exp(t, row, sub)
	})
}

func FuzzGELURow(f *testing.F) {
	for i, v := range geluEdgeArgs() {
		if i < 100 || i%499 == 0 {
			f.Add(int64(i), uint8(i), uint8(i/3), v)
		}
	}
	c := newMathRowChecker(f)
	f.Fuzz(func(t *testing.T, seed int64, n, pos uint8, plant float64) {
		row := mathRowFuzzRow(seed, n, pos, plant, func(rng *rand.Rand) float64 { return rng.NormFloat64() * 1.5 })
		c.gelu(t, row)
	})
}

// The graph ops and the fused ops are the same row kernels, so composed and
// fused agree by construction; this pins the construction: SoftmaxRows equals
// the definition over Exp with one left-associative sum, and GELU equals
// the scalar expression, on every kernel choice.
func TestGraphOpsRunTheRowKernels(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		x := New(9, 37)
		fillKernelInput(rng, x.Data, 0)
		sm, g := SoftmaxRows(x, nil), GELU(x)
		fused := append([]float64(nil), x.Data...)
		FusedGELUInPlace(fused)
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			maxv, sum := math.Inf(-1), 0.0
			for _, v := range row {
				maxv = math.Max(maxv, v)
			}
			e := make([]float64, len(row))
			for j, v := range row {
				e[j] = Exp(v - maxv)
				sum += e[j]
			}
			for j := range e {
				e[j] *= 1 / sum
			}
			if j := firstBitDiff(sm.Row(i), e); j >= 0 {
				t.Fatalf("SoftmaxRows[%d][%d] = %v, definition gives %v", i, j, sm.Row(i)[j], e[j])
			}
			for j, v := range row {
				if want := geluScalar(v); math.Float64bits(g.Row(i)[j]) != math.Float64bits(want) || math.Float64bits(fused[i*x.Cols+j]) != math.Float64bits(want) {
					t.Fatalf("GELU[%d][%d] = %v (graph) / %v (fused), scalar expression gives %v", i, j, g.Row(i)[j], fused[i*x.Cols+j], want)
				}
			}
		}
	})
}

// Kernels() says what the process selected, in words an operator can grep:
// each selection flag has its own mark in the string, and the root package's
// tests key on the " fma exp gelu" ending this pins. Run with -v, it prints
// the selection, so a log shows which kernels a run tested.
func TestKernelsReport(t *testing.T) {
	got := Kernels()
	t.Logf("kernels: %s; %s", got, expBranchLine())
	if haveAVX2 != strings.HasSuffix(got, " fma exp gelu") || haveAVX2 == strings.HasPrefix(got, "go ") ||
		haveAVX512 != strings.HasPrefix(got, "avx512 ") {
		t.Fatalf("Kernels() = %q with haveAVX2=%v, haveAVX512=%v", got, haveAVX2, haveAVX512)
	}
}

// expBranchArg is an argument on which math.Exp's two amd64 branches differ
// in the last place: its FMA branch, like Exp, gives 0x3f29e52012b5a485.
const expBranchArg, expFMABits = -8.529451372330323, 0x3f29e52012b5a485

// expBranchLine shows which branch of math.Exp this process runs.
func expBranchLine() string {
	return fmt.Sprintf("math.Exp(%v) = %#x", expBranchArg, math.Float64bits(math.Exp(expBranchArg)))
}

// The one tie to the library: where math.Exp takes its FMA branch, Exp equals
// it and tanh equals math.Tanh in every bit over more than 10⁷ arguments each
// — softmax-shaped, uniform over ±760 and ±2 (±50 for tanh), raw bit
// patterns, and the edge sets: every cut with its neighbours, every binade
// edge, the specials. A toolchain that changes either function fails here;
// everything else in the package is held to Exp and tanh.
func TestExpAndTanhMatchTheLibrary(t *testing.T) {
	if runtime.GOARCH != "amd64" || math.Float64bits(math.Exp(expBranchArg)) != expFMABits {
		t.Skipf("math.Exp does not take its amd64 FMA branch in this process (%s %s; that branch and Exp give %#x): nothing to compare with",
			runtime.GOARCH, expBranchLine(), uint64(expFMABits))
	}
	n := 10_200_000
	if testing.Short() {
		n = 510_000
	}
	check := func(name string, f, lib func(float64) float64, x float64) {
		if got, want := f(x), lib(x); firstBitDiff([]float64{got}, []float64{want}) >= 0 {
			t.Fatalf("%s(%v = %#x) = %#x, the library gives %#x", name, x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < n; i++ {
		var x float64
		switch i % 5 {
		case 0, 1:
			x = -rng.ExpFloat64() * []float64{1, 4, 20, 200}[i/5%4]
		case 2:
			x = (rng.Float64()*2 - 1) * 760
		case 3:
			x = (rng.Float64()*2 - 1) * 2
		case 4:
			x = math.Float64frombits(rng.Uint64())
		}
		check("Exp", Exp, math.Exp, x)
	}
	for _, x := range expEdgeArgs() {
		check("Exp", Exp, math.Exp, x)
	}
	for i := 0; i < n; i++ {
		var x float64
		switch i % 4 {
		case 0, 1:
			x = rng.NormFloat64() * []float64{0.3, 1, 2.5, 8}[i/4%4]
		case 2:
			x = (rng.Float64()*2 - 1) * 50
		case 3:
			x = math.Float64frombits(rng.Uint64())
		}
		check("tanh", tanh, math.Tanh, x)
	}
	edges := append(binadeEdges(), kernelSpecials...)
	for _, u := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 1, 20, 44} {
		edges = append(append(edges, neighbours(u)...), neighbours(-u)...)
	}
	for _, x := range edges {
		check("tanh", tanh, math.Tanh, x)
	}
	t.Logf("%d arguments each, and the edge sets", n)
}
