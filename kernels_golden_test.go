package taste

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestKernelsReported logs which kernels the goldens ran on.
func TestKernelsReported(t *testing.T) {
	t.Logf("kernels: %s", tensor.Kernels())
}

// The four goldens were recorded once and must hold on either side of the
// exp/GELU kernel selection. This process runs them on whatever it selected;
// the child below runs them again under GODEBUG=cpu.fma=off, where math.Exp
// takes its non-FMA branch, the start-up probe sees the kernels disagree with
// it, and every row runs the scalar calls. The gate is the selection, not
// one spelling of it: Kernels() ends in " fma exp gelu" exactly when the
// vector exp/GELU rows run, whichever matmul kernel leads the string
// (tensor's TestKernelsReport pins that).
func TestGoldensHoldWithMathKernelsDeselected(t *testing.T) {
	if !strings.HasSuffix(tensor.Kernels(), " fma exp gelu") {
		t.Skipf("vector exp/gelu not selected here (%s)", tensor.Kernels())
	}
	cmd := exec.Command(os.Args[0], "-test.v",
		"-test.run=^(TestGoldenDetect|TestPipelineGoldenParity|TestCacheGoldenParity|TestFleetGoldenParity|TestKernelsReported)$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("goldens under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "kernels: "+tensor.Kernels()) {
		// A GOAMD64 ≥ v3 build has no cpu.fma switch; the tensor package's
		// TestFMAOffDeselectsMathRows tells that from a probe that failed to
		// deselect.
		t.Skip("GODEBUG=cpu.fma=off did not deselect the kernels in this build")
	}
	if !strings.Contains(string(out), "(probe mismatch)") {
		t.Fatalf("child did not report the kernels deselected by the probe:\n%s", out)
	}
	for _, name := range []string{"TestGoldenDetect", "TestPipelineGoldenParity", "TestCacheGoldenParity", "TestFleetGoldenParity"} {
		if !strings.Contains(string(out), "--- PASS: "+name) {
			t.Fatalf("%s did not pass in the child:\n%s", name, out)
		}
	}
}
