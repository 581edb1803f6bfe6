package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adtd"
)

// twinModel returns a model of its own (own parameters, own generation)
// holding m's description and bits: m written as a model file and read
// back.
func twinModel(t *testing.T, m *adtd.Model) *adtd.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := adtd.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestModelFileRoundTripAnswersBitIdentically: a model written as a model
// file and read back answers a sequential detect with the bytes of the
// model it was written from, every probability included (a float64's JSON
// form parses back to the same bits), through Phase 2 for every column.
func TestModelFileRoundTripAnswersBitIdentically(t *testing.T) {
	det, ds := phase2Detector(t, 4)
	server := newServerWith(allTables(ds))
	want, err := det.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewDetector(twinModel(t, det.Model()), det.Opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := twin.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentForwards == 0 || len(got.Tables[0].Columns[0].Probs) == 0 {
		t.Fatal("no Phase-2 probabilities to compare")
	}
	if canonTables(t, got) != canonTables(t, want) {
		t.Fatalf("the model read back answers\n%s\nthe model written answered\n%s", canonTables(t, got), canonTables(t, want))
	}
}

// TestModelWritersLeaveCapturedModel hot-swaps the serving model back and
// forth while pipelined DetectDatabase calls read it (run it under -race).
// SwapModel is the detector's one model writer: every swap hands back the
// model it replaced, a model captured before a swap keeps its generation and
// every parameter bit, and since the two models hold the same bits every
// detect on either side of a swap answers the reference bytes.
func TestModelWritersLeaveCapturedModel(t *testing.T) {
	det, ds := phase2Detector(t, 4)
	server := newServerWith(allTables(ds))
	ref, err := det.DetectDatabase(context.Background(), server, "tenant", PipelinedMode())
	if err != nil {
		t.Fatal(err)
	}
	want := canonTables(t, ref)
	models := [2]*adtd.Model{det.Model(), twinModel(t, det.Model())}

	stop := make(chan struct{})
	errs := make(chan string, 2)
	// detects counts the detects that completed; a failed one sets it to -1.
	var detects atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := det.DetectDatabase(context.Background(), server, "tenant", PipelinedMode())
				if err != nil {
					errs <- err.Error()
					detects.Store(-1)
					return
				}
				// canonTables' t.Fatal may not run off the test goroutine.
				if got, _ := json.Marshal(rep.Tables); string(got) != want {
					errs <- "a detect during hot-swaps answered other bytes than the reference"
					detects.Store(-1)
					return
				}
				detects.Add(1)
			}
		}()
	}
	const swaps = 6
	for i := 0; i < swaps; i++ {
		// Each swap waits for a detect to complete since the last one.
		for n := detects.Load(); n >= 0 && n < int64(i); n = detects.Load() {
			runtime.Gosched()
		}
		captured := det.Model()
		gen, sum := captured.Generation(), paramsHash(t, captured)
		next := models[(i+1)%2]
		if old := det.SwapModel(next); old != captured {
			t.Fatalf("swap %d returned a model other than the one it replaced", i)
		}
		if det.Model() != next {
			t.Fatalf("swap %d did not install its model", i)
		}
		if captured.Generation() != gen || paramsHash(t, captured) != sum {
			t.Fatalf("swap %d changed a model captured before it", i)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
