package tensor

import (
	"fmt"
	"math"
	"os"
	"strings"
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

// A host that has AVX-512 but runs the AVX2 rows is slower, not wrong, and
// every bit test passes on it — the avx512 mode just skips. So the machine's
// support is read here condition by condition, independently of
// detectAVX512, and where all of them hold the kernel must be selected; on
// Linux the kernel's own flag (/proc/cpuinfo lists avx512f only where it
// saves the ZMM state) must agree with the reading.
func TestAVX512SelectedWhereTheCPUHasIt(t *testing.T) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	_, ebx7, _, _ := cpuidAsm(7, 0)
	var xcr0 uint32
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbvAsm()
	}
	var why string
	switch {
	case maxLeaf < 7:
		why = "CPUID has no leaf 7"
	case ebx7&(1<<16) == 0:
		why = "CPUID.(EAX=7):EBX.AVX512F is clear"
	case ecx1&(1<<27) == 0:
		why = "CPUID.1:ECX.OSXSAVE is clear"
	case xcr0&0xe6 != 0xe6:
		why = fmt.Sprintf("XCR0 = %#x: the OS does not save the opmask and ZMM state (want bits 0xe6)", xcr0)
	case !cpuAVX2:
		why = "the AVX2 kernels it runs beside are not selected"
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		listed := false
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "flags") {
				listed = strings.Contains(line+" ", " avx512f ")
				break
			}
		}
		if listed != (why == "") {
			t.Fatalf("/proc/cpuinfo lists avx512f: %v; CPUID and XCR0 read here: %q", listed, why)
		}
	}
	switch {
	case why != "" && cpuAVX512:
		t.Fatalf("AVX-512 rows selected although %s", why)
	case why != "":
		t.Skipf("no AVX-512 here: %s", why)
	case !cpuAVX512:
		t.Fatalf("CPUID and XCR0 advertise AVX-512, but the process runs %q", Kernels())
	}
}
