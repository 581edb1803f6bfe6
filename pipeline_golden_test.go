package taste

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestPipelineGoldenParity pins the pipelined scheduler's determinism
// contract (DESIGN.md §16): a pipelined run — every table on a goroutine of
// its own, at most GOMAXPROCS inference stages at once — must produce
// byte-identical results to the sequential baseline. Both run the same
// stages with the same scan options, and every table runs the same forward
// on either path, so any divergence here is a bug, not noise. The pipelined
// run repeats under GOMAXPROCS 1 and 8, which moves both the inference cap
// and the kernels' shard counts.
func TestPipelineGoldenParity(t *testing.T) {
	// Untrained model with a near-full uncertainty band: every column goes
	// through Phase 2, exercising the scan stage and the content forward on
	// every table.
	ds := WikiTableDataset(40, 7)
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99

	canon := func(mode ExecMode) string {
		t.Helper()
		model, err := NewModel(ds, ReproScale(), 7)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(model, opts)
		if err != nil {
			t.Fatal(err)
		}
		server := NewServer(NoLatency)
		server.LoadTables("golden", ds.Test)
		rep, err := det.DetectDatabase(context.Background(), server, "golden", mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 0 {
			t.Fatalf("errors: %v", rep.Errors)
		}
		if rep.ScannedColumns != rep.TotalColumns {
			t.Fatalf("parity run must push every column through Phase 2: scanned %d of %d",
				rep.ScannedColumns, rep.TotalColumns)
		}
		buf, err := json.Marshal(rep.Tables)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	want := canon(SequentialMode)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		if got := canon(PipelinedMode()); got != want {
			t.Fatalf("pipelined under GOMAXPROCS %d: results differ from sequential mode", procs)
		}
	}
}
