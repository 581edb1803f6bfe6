package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// A kernel that declined every block would pass every bit test on the scalar
// fallback. Called directly, the assembly must take exactly its range: all of
// a row inside it, masked tail included, and stop at the start of the first
// block (four lanes, or eight on AVX-512) holding an argument outside it —
// also from inside a group of four blocks the AVX-512 GELU kernel takes at
// once.
// kernelRankBlock is rankBlock on the AVX-512 kernels, the only ones that
// cut K into blocks, or all of k where the machine has none.
func kernelRankBlock(t testing.TB, rows, k, n, bstride int) int {
	kb := k
	if cpuAVX512 {
		kernelChoices[0].with(t, func() { kb = rankBlock(rows, k, n, bstride) })
	}
	return kb
}

// A CPUID report of an L1 with one-byte ways leaves rankBlock no budget; it
// must still cut K into blocks of at least one rank, and the products must
// keep their bits.
func TestRankBlockWithoutL1Budget(t *testing.T) {
	if !cpuAVX512 {
		t.Skipf("K blocks not used here (%s)", Kernels())
	}
	oldSize, oldWay := l1Size, l1Way
	l1Size, l1Way = 1, 1
	defer func() { l1Size, l1Way = oldSize, oldWay }()
	kernelChoices[0].with(t, func() {
		for _, k := range []int{1, 2, 7, 64} {
			if kb := rankBlock(8, k, 64, 64); kb != 1 {
				t.Fatalf("rankBlock(8, %d, 64, 64) = %d with no L1 budget, want 1", k, kb)
			}
		}
	})
	bufs := newMulBufs(t, 70, 70)
	rng := rand.New(rand.NewSource(37))
	for _, c := range []mulCase{
		{m: 8, k: 64, n: 64, zero: true, bias: true, specials: 5, edges: true},
		{m: 5, k: 9, n: 61, c0: 3, pad: 2, specials: 3, edges: true},
	} {
		checkMulRowRange(t, bufs, rng, c)
	}
}

func TestMathRowKernelsTakeTheirRange(t *testing.T) {
	if !cpuAVX2 {
		t.Skipf("vector exp/gelu not selected here (%s)", Kernels())
	}
	type kernel struct {
		name  string
		lanes int
		run   func(p []float64) int
	}
	for _, f := range []struct {
		kernels []kernel
		in, out []float64 // arguments just inside and just outside the range
	}{
		{[]kernel{
			{"expSubFMAAsm", 4, func(p []float64) int { return expSubFMAAsm(&p[0], len(p), 0) }},
			{"expSub512Asm", 8, func(p []float64) int { return expSub512Asm(&p[0], len(p), 0) }},
		},
			[]float64{708, -708, 0, math.Copysign(0, -1), 5e-324},
			[]float64{math.Nextafter(708, 709), math.Nextafter(-708, -709), math.Inf(1), math.Inf(-1), math.NaN()}},
		{[]kernel{
			{"geluFMAAsm", 4, func(p []float64) int { return geluFMAAsm(&p[0], len(p)) }},
			{"gelu512Asm", 8, func(p []float64) int { return gelu512Asm(&p[0], len(p)) }},
		},
			[]float64{math.Nextafter(geluArgAt(44), 0), -math.Nextafter(geluArgAt(44), 0), 0, math.Copysign(0, -1), 5e-324},
			[]float64{math.Nextafter(geluArgAt(44), 64), -math.Nextafter(geluArgAt(44), 64), 1e200, math.Inf(-1), math.NaN()}},
	} {
		for _, k := range f.kernels {
			if k.lanes == 8 && !cpuAVX512 {
				t.Logf("%s not called: no AVX-512 here", k.name)
				continue
			}
			for n := 1; n <= 43; n++ {
				for pos := 0; pos < n; pos++ {
					for i := range f.in {
						row := make([]float64, n)
						row[pos] = f.in[i]
						if got := k.run(row); got != n {
							t.Fatalf("%s: %d elements with %v at %d: took %d, want all", k.name, n, f.in[i], pos, got)
						}
						row = make([]float64, n)
						row[pos] = f.out[i]
						if got, want := k.run(row), pos&^(k.lanes-1); got != want {
							t.Fatalf("%s: %d elements with %v at %d: took %d, want %d", k.name, n, f.out[i], pos, got, want)
						}
					}
				}
			}
		}
	}
}

// A host that has AVX-512 but runs the AVX2 rows, or has AVX2 and FMA but
// runs the Go kernels, is slower, not wrong, and every bit test passes on it
// (the avx512 and asm modes skip; the Go kernels compute the same bits). So
// the machine's support is read here condition by condition, independently
// of detectAVX2 and detectAVX512, and where all of them hold the kernels must
// be selected; on Linux the kernel's own flags (/proc/cpuinfo lists avx512f
// and fma only where it saves the register state they need) must agree with
// the reading. Kernels() says "no FMA" exactly where the reading has no
// usable FMA, so the Go kernels' math.FMA is software.
func TestAVX512SelectedWhereTheCPUHasIt(t *testing.T) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	_, ebx7, _, _ := cpuidAsm(7, 0)
	var xcr0 uint32
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbvAsm()
	}
	var flags string // the first "flags" line of /proc/cpuinfo, "" off Linux
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "flags") {
				flags = line + " "
				break
			}
		}
	}
	listed := func(flag string) bool { return strings.Contains(flags, " "+flag+" ") }

	var fmaWhy string
	switch {
	case maxLeaf < 7:
		fmaWhy = "CPUID has no leaf 7"
	case ebx7&(1<<5) == 0:
		fmaWhy = "CPUID.(EAX=7):EBX.AVX2 is clear"
	case ecx1&(1<<12) == 0:
		fmaWhy = "CPUID.1:ECX.FMA is clear"
	case ecx1&(1<<27) == 0:
		fmaWhy = "CPUID.1:ECX.OSXSAVE is clear"
	case xcr0&0x6 != 0x6:
		fmaWhy = fmt.Sprintf("XCR0 = %#x: the OS does not save the YMM state (want bits 0x6)", xcr0)
	case flags != "" && !listed("fma"):
		fmaWhy = "/proc/cpuinfo does not list fma"
	}
	switch vector := strings.HasSuffix(Kernels(), " fma exp gelu"); {
	case fmaWhy != "" && vector:
		t.Fatalf("assembly kernels selected although %s", fmaWhy)
	case fmaWhy == "" && !vector:
		t.Fatalf("CPUID, XCR0 and /proc/cpuinfo advertise AVX2 and FMA, but the process runs %q", Kernels())
	}
	noFMA := ecx1&(1<<12) == 0 || ecx1&(1<<27) == 0 || xcr0&0x6 != 0x6
	if noFMA != (Kernels() == "go (no FMA)") {
		t.Fatalf("Kernels() = %q, but CPUID and XCR0 read no usable FMA: %v", Kernels(), noFMA)
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
	if flags != "" && listed("avx512f") != (why == "") {
		t.Fatalf("/proc/cpuinfo lists avx512f: %v; CPUID and XCR0 read here: %q", listed("avx512f"), why)
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
