package core

import (
	"context"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// benchDetector builds an untrained repro-scale detector with a near-full
// uncertainty band (α=0.01, β=0.99): an untrained model's probabilities sit
// around σ(-3) ≈ 0.047, inside the band, so every column goes through
// Phase 2 — the worst-case end-to-end path (metadata tower, content scan,
// batched content tower) that the compute runtime is meant to speed up.
func benchDetector(tb testing.TB) (*Detector, *corpus.Dataset) {
	tb.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(40), 1)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := adtd.New(cfg, tok, types, 7)
	if err != nil {
		tb.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99
	det, err := NewDetector(m, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return det, ds
}

// BenchmarkDetectDatabase times end-to-end detection over a whole tenant
// database, sequential versus pipelined — the headline number for the
// compute-runtime work (every column forced through Phase 2).
func BenchmarkDetectDatabase(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode ExecMode
	}{
		{"sequential", SequentialMode},
		{"pipelined", PipelinedMode()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			det, ds := benchDetector(b)
			server := simdb.NewServer(simdb.NoLatency)
			server.LoadTables("tenant", ds.Test)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode.mode)
				if err != nil {
					b.Fatal(err)
				}
				if rep.ScannedColumns == 0 {
					b.Fatal("benchmark must exercise Phase 2")
				}
			}
		})
	}
}
