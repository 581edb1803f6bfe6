package tensor

import (
	"math"
	"testing"
)

// A kernel that declined every block would pass every bit test on the scalar
// fallback. Called directly, the assembly must take exactly its range: all of
// a row inside it, masked tail included, and stop at the start of the first
// block holding an argument outside it.
func TestMathRowKernelsTakeTheirRange(t *testing.T) {
	if mathRowsOff != "" {
		t.Skipf("vector exp/gelu not selected here (%s)", Kernels())
	}
	kernels := []struct {
		name    string
		run     func(p []float64) int
		in, out []float64 // arguments just inside and just outside the range
	}{
		{"exp", func(p []float64) int { return expSubFMAAsm(&p[0], len(p), 0) },
			[]float64{708, -708, 0, math.Copysign(0, -1), 5e-324},
			[]float64{math.Nextafter(708, 709), math.Nextafter(-708, -709), math.Inf(1), math.Inf(-1), math.NaN()}},
		{"gelu", func(p []float64) int { return geluFMAAsm(&p[0], len(p)) },
			[]float64{math.Nextafter(geluArgAt(44), 0), -math.Nextafter(geluArgAt(44), 0), 0, math.Copysign(0, -1), 5e-324},
			[]float64{math.Nextafter(geluArgAt(44), 64), -math.Nextafter(geluArgAt(44), 64), 1e200, math.Inf(-1), math.NaN()}},
	}
	for _, k := range kernels {
		for n := 1; n <= 13; n++ {
			for pos := 0; pos < n; pos++ {
				for i := range k.in {
					row := make([]float64, n)
					row[pos] = k.in[i]
					if got := k.run(row); got != n {
						t.Fatalf("%s: %d elements with %v at %d: took %d, want all", k.name, n, k.in[i], pos, got)
					}
					row = make([]float64, n)
					row[pos] = k.out[i]
					if got, want := k.run(row), pos&^3; got != want {
						t.Fatalf("%s: %d elements with %v at %d: took %d, want %d", k.name, n, k.out[i], pos, got, want)
					}
				}
			}
		}
	}
}

// The probe turns a kernel that no longer matches the library into a slower
// process, not a wrong one — which would also hide a broken kernel behind
// green bit tests. So where the library demonstrably runs the branch the
// kernels replay (math.Exp gives its FMA bits on an argument where the two
// branches differ), a probe mismatch is a failure, and the probe arguments
// are run through the assembly to name the first one that differs.
func TestMathRowsSelectedWhereTheLibraryFuses(t *testing.T) {
	const fmaBits, plainBits = 0x3f29e52012b5a485, 0x3f29e52012b5a486
	switch got := math.Float64bits(math.Exp(expProbeArgs[0])); {
	case mathRowsOff != "probe mismatch":
		t.Skipf("no mismatch to explain (%s)", Kernels())
	case got == plainBits:
		t.Skip("math.Exp runs its non-FMA branch: the probe is right to deselect")
	case got != fmaBits:
		t.Fatalf("math.Exp(%v) = %#x, neither archExp branch: the library's algorithm changed; the kernels need a new sequence", expProbeArgs[0], got)
	}
	c := newMathRowChecker(t)
	withMathRowsOff(t, "", func() {
		c.exp(t, expProbeArgs[:], 0)
		c.gelu(t, geluProbeArgs[:])
	})
	t.Fatal("the probe reported a mismatch that its arguments do not show")
}
