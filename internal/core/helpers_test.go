package core

import (
	"crypto/sha256"
	"runtime"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// phase2Detector builds an untrained tiny detector with a near-full
// uncertainty band (α=0.01, β=0.99): every column is uncertain after
// Phase 1, so the full scan + content-inference path runs for every table.
func phase2Detector(t *testing.T, tables int) (*Detector, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(tables), 3)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := adtd.New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99
	det, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return det, ds
}

// allTables flattens every split into one tenant database.
func allTables(ds *corpus.Dataset) []*corpus.Table {
	all := make([]*corpus.Table, 0, len(ds.Train)+len(ds.Val)+len(ds.Test))
	all = append(all, ds.Train...)
	all = append(all, ds.Val...)
	return append(all, ds.Test...)
}

// newServerWith loads the tables into a zero-latency tenant.
func newServerWith(tables []*corpus.Table) *simdb.Server {
	s := simdb.NewServer(simdb.NoLatency)
	s.LoadTables("tenant", tables)
	return s
}

// tableNames lists the tables' names in order.
func tableNames(tables []*corpus.Table) []string {
	names := make([]string, len(tables))
	for i, tb := range tables {
		names[i] = tb.Name
	}
	return names
}

// waitGoroutines fails the test when the goroutine count does not return to
// (about) its baseline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// tableCols names every column of tb.
func tableCols(tb *corpus.Table) []string {
	out := make([]string, len(tb.Columns))
	for i, c := range tb.Columns {
		out[i] = c.Name
	}
	return out
}

// paramsHash is the SHA-256 of m's checkpoint: equal exactly when every
// parameter holds the same bits.
func paramsHash(t *testing.T, m *adtd.Model) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}
