package taste

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/tensor"
)

// TestPipelineGoldenParity pins the work-stealing scheduler's determinism
// contract (DESIGN.md §16): a pipelined run — stage stealing and scan
// prefetch enabled — must produce byte-identical results to the sequential
// baseline. Prefetched reads use the same scan options as synchronous ones
// and every table runs the same forward on either path, so any divergence
// here is a bug, not noise.
func TestPipelineGoldenParity(t *testing.T) {
	// One kernel worker keeps floating-point reductions in a fixed order.
	old := tensor.DefaultParallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(old)

	// Untrained model with a near-full uncertainty band: every column goes
	// through Phase 2, exercising prefetched scans and the content forward
	// on every table.
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
	for _, tc := range []struct {
		name string
		mode ExecMode
	}{
		{"stealing", ExecMode{Pipelined: true, Workers: 8}},
		{"legacy_pools", PipelinedMode()},
	} {
		if got := canon(tc.mode); got != want {
			t.Fatalf("%s: results differ from sequential mode", tc.name)
		}
	}
}
