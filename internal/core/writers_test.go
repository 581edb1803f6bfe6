package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
)

// TestModelWritersLeaveCapturedModel runs Feedback and RegisterTypes while
// pipelined DetectDatabase calls read the serving model (run it under
// -race). A model captured before a write must keep its generation and every
// parameter bit: the writers change a copy and install it, so a request
// never reads weights that move under it.
func TestModelWritersLeaveCapturedModel(t *testing.T) {
	det, ds := phase2Detector(t, 4)
	server := newServerWith(allTables(ds))
	reg := corpus.DefaultRegistry()
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	types := det.Model().Types.Len()

	stop := make(chan struct{})
	errs := make(chan error, 2)
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
				if _, err := det.DetectDatabase(context.Background(), server, "tenant", PipelinedMode()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	const writes = 3
	for i := 0; i < writes; i++ {
		captured := det.Model()
		gen, sum := captured.Generation(), paramsHash(t, captured)
		if err := det.Feedback(info, 0, ds.Test[0].Columns[0].Labels); err != nil {
			t.Fatal(err)
		}
		if err := det.RegisterTypes(reg, []*corpus.Type{{
			Name: fmt.Sprintf("writer_type_%d", i), Category: "identifier", SQLType: "VARCHAR",
			ColumnNames: []string{"code"}, Gen: func(r *rand.Rand) string { return "x" },
		}}); err != nil {
			t.Fatal(err)
		}
		if captured.Generation() != gen || paramsHash(t, captured) != sum {
			t.Fatalf("write %d changed a model captured before it", i)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := det.Model().Types.Len(); got != types+writes {
		t.Fatalf("serving type space has %d types, want %d", got, types+writes)
	}
	if det.Feedbacks() != writes {
		t.Fatalf("Feedbacks() = %d, want %d", det.Feedbacks(), writes)
	}
}

// TestBaselineDetectorRefusesModelWrites: a baseline detector has no model
// to adapt, so Feedback and RegisterTypes return an error instead of
// panicking.
func TestBaselineDetectorRefusesModelWrites(t *testing.T) {
	det, _, tables := baselineFixture(t, true)
	info := metafeat.FromCorpusTable(tables[0], false, 0)
	if err := det.Feedback(info, 0, nil); err == nil {
		t.Fatal("Feedback on a baseline detector returned no error")
	}
	reg := corpus.DefaultRegistry()
	if err := det.RegisterTypes(reg, []*corpus.Type{{
		Name: "baseline_type", Category: "identifier", SQLType: "VARCHAR",
		ColumnNames: []string{"code"}, Gen: func(r *rand.Rand) string { return "x" },
	}}); err == nil {
		t.Fatal("RegisterTypes on a baseline detector returned no error")
	}
	if det.Model() != nil || slices.Contains(reg.Names(), "baseline_type") {
		t.Fatal("a refused write left a model or a registered type behind")
	}
}

// TestModelWritersShareTheEncoder: Feedback and RegisterTypes derive the
// model they install instead of copying it. Every parameter outside the two
// classifier heads shares the previous model's buffer; every head parameter
// has a buffer of its own.
func TestModelWritersShareTheEncoder(t *testing.T) {
	det, ds := phase2Detector(t, 2)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	writes := map[string]func() error{
		"Feedback": func() error { return det.Feedback(info, 0, ds.Test[0].Columns[0].Labels) },
		"RegisterTypes": func() error {
			return det.RegisterTypes(corpus.DefaultRegistry(), []*corpus.Type{{
				Name: "shared_encoder_type", Category: "identifier", SQLType: "VARCHAR",
				ColumnNames: []string{"code"}, Gen: func(r *rand.Rand) string { return "x" },
			}})
		},
	}
	for _, name := range []string{"Feedback", "RegisterTypes"} {
		before := det.Model()
		if err := writes[name](); err != nil {
			t.Fatal(err)
		}
		after := det.Model()
		heads := append(after.MetaCls.Params(), after.ContCls.Params()...)
		old, cur := before.Params(), after.Params()
		for i := range cur {
			shared := &cur[i].Data[0] == &old[i].Data[0]
			if isHead := slices.Contains(heads, cur[i]); shared == isHead {
				t.Fatalf("%s: parameter %d shares its buffer = %v, head = %v", name, i, shared, isHead)
			}
		}
	}
}
