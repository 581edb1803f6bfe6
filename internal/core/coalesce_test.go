package core

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/adtd"
	"repro/internal/tensor"
)

// canonTables serializes per-table results for byte comparison across
// execution modes.
func canonTables(t *testing.T, rep *Report) string {
	t.Helper()
	out, err := json.Marshal(rep.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCrossTableBatchingReducesForwards: over a database of many narrow
// tables with every column uncertain, cross-table batching must coalesce
// the per-table Phase-2 forwards ≥5× while producing byte-identical
// results — the key spans keep per-chunk outputs independent of batch
// composition, so a bigger batch is purely fewer model calls.
func TestCrossTableBatchingReducesForwards(t *testing.T) {
	det, ds := phase2Detector(t, 40)
	tables := allTables(ds)
	server := newServerWith(tables)

	seq, err := det.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if seq.ContentForwards != len(tables) {
		t.Fatalf("sequential forwards = %d, want one per table (%d)", seq.ContentForwards, len(tables))
	}

	det2, _ := phase2Detector(t, 40) // fresh caches
	mode := ExecMode{Pipelined: true, Workers: 8, BatchChunks: 8}
	batched, err := det2.DetectDatabase(context.Background(), server, "tenant", mode)
	if err != nil {
		t.Fatal(err)
	}
	if batched.ContentForwards == 0 {
		t.Fatal("batched run reported zero content forwards")
	}
	if drop := float64(seq.ContentForwards) / float64(batched.ContentForwards); drop < 5 {
		t.Fatalf("forwards drop = %.1fx (%d vs %d), want ≥ 5x",
			drop, batched.ContentForwards, seq.ContentForwards)
	}
	if canonTables(t, seq) != canonTables(t, batched) {
		t.Fatal("batched results differ from sequential results")
	}

	det3, _ := phase2Detector(t, 40)
	unbatched, err := det3.DetectDatabase(context.Background(), server, "tenant",
		ExecMode{Pipelined: true, Workers: 8, BatchChunks: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unbatched.ContentForwards != seq.ContentForwards {
		t.Fatalf("BatchChunks<0 must disable coalescing: forwards = %d, want %d",
			unbatched.ContentForwards, seq.ContentForwards)
	}
	if canonTables(t, seq) != canonTables(t, unbatched) {
		t.Fatal("unbatched stealing results differ from sequential results")
	}
}

// countingInferencer stands in for the service's cross-request Batcher: it
// counts submissions and forwards them under the process quantization
// default, as the real one does.
type countingInferencer struct{ calls atomic.Int64 }

func (c *countingInferencer) InferContentBatch(_ context.Context, m *adtd.Model, reqs []adtd.ContentRequest, n int) ([][][]float64, error) {
	c.calls.Add(1)
	return m.PredictContentBatch(reqs, n), nil
}

// TestCoalescerFlushBypassesInferencer: a coalescer flush has already waited
// for all the company it can get, so it runs its merged batch itself and
// never parks it in the cross-request inferencer's queue (where, in the
// service, it would sit out the batch window with every worker blocked).
// Requests that do not coalesce still go through the inferencer.
func TestCoalescerFlushBypassesInferencer(t *testing.T) {
	ref, ds := phase2Detector(t, 40)
	server := newServerWith(allTables(ds))
	seq, err := ref.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		mode      ExecMode
		coalesced bool
	}{
		{"coalesced", ExecMode{Pipelined: true, Workers: 4, BatchChunks: 8}, true},
		{"stealing-only", ExecMode{Pipelined: true, Workers: 4, BatchChunks: -1}, false},
	} {
		det, _ := phase2Detector(t, 40)
		inf := &countingInferencer{}
		det.SetContentInferencer(inf)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ContentForwards == 0 {
			t.Fatalf("%s: no content forwards ran", tc.name)
		}
		if canonTables(t, rep) != canonTables(t, seq) {
			t.Fatalf("%s: results differ from the sequential reference", tc.name)
		}
		if got := inf.calls.Load(); tc.coalesced && got != 0 {
			t.Fatalf("%s: %d flushes went through the cross-request inferencer, want 0", tc.name, got)
		} else if !tc.coalesced && got != int64(rep.ContentForwards) {
			t.Fatalf("%s: inferencer saw %d of %d forwards", tc.name, got, rep.ContentForwards)
		}
	}
}

// TestCoalescerResultKeysFollowRequestQuantize: a coalescer flush runs under
// the request's own quantization preference even when a cross-request
// inferencer (which always uses the process default) is installed, so the
// result tier must key its rows by that preference. One worker makes every
// flush a single table's chunks — the same forwards the sequential
// reference runs — so rows compare bit for bit, int8 included.
func TestCoalescerResultKeysFollowRequestQuantize(t *testing.T) {
	if !tensor.QuantizeAvailable() {
		t.Skip("no int8 SIMD kernels on this CPU")
	}
	base, ds := phase2Detector(t, 12)
	server := newServerWith(allTables(ds))
	detect := func(det *Detector, quant bool, mode ExecMode) string {
		t.Helper()
		rep, err := det.DetectDatabase(WithQuantize(context.Background(), quant), server, "tenant", mode)
		if err != nil {
			t.Fatal(err)
		}
		return canonTables(t, rep)
	}
	// Every detector gets cold caches of its own, result tier on.
	fresh := func(withInferencer bool) *Detector {
		opts := base.Opts
		opts.ResultCacheBytes = 4 << 20
		det, err := NewDetector(base.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if withInferencer {
			det.SetContentInferencer(&countingInferencer{})
		}
		return det
	}
	refOn := detect(fresh(false), true, SequentialMode)
	refOff := detect(fresh(false), false, SequentialMode)
	// Sequential through the inferencer: int8 latents, fp64 content forward.
	refMixed := detect(fresh(true), true, SequentialMode)
	if refOn == refOff || refOn == refMixed {
		t.Fatal("quantization does not change this fixture's rows: the test cannot tell the paths apart")
	}

	det := fresh(true)
	coalesced := ExecMode{Pipelined: true, Workers: 1, BatchChunks: 8}
	if got := detect(det, true, coalesced); got != refOn {
		t.Fatal("coalesced quantize=on differs from its sequential reference")
	}
	if got := detect(det, false, coalesced); got != refOff {
		t.Fatal("coalesced quantize=off differs from its sequential reference (shared result entries?)")
	}
	// Same latents flag as the first request, different content-forward
	// flag: these rows must not resolve to the entries it memoized.
	if got := detect(det, true, SequentialMode); got != refMixed {
		t.Fatal("inferencer-routed quantize=on request was answered from the coalescer's int8 result entries")
	}
	if got := detect(det, true, coalesced); got != refOn {
		t.Fatal("warm coalesced quantize=on differs from its reference")
	}
}
