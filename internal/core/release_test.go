package core

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
)

// TestBatchReuseMatchesFresh: a detect whose report is released hands its
// storage to the next, and no answer may depend on what that storage held
// before. Tables split into chunks of three, so views, chunk lists, keys,
// scan cells and results grow and shrink from one detect to the next; they
// are detected one by one and in pipelined batches, forwards and backwards,
// on a detector with the result tier on (so later rounds hit it), every
// report released. Each table's result must equal the one a detector
// without the result tier returns on storage nothing had used.
func TestBatchReuseMatchesFresh(t *testing.T) {
	det, ds := phase2Detector(t, 16)
	opts := det.Opts
	opts.SplitThreshold = 3
	fresh, err := NewDetector(det.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ResultCacheBytes = 16 << 20
	reused, err := NewDetector(det.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := allTables(ds)
	server := newServerWith(tables)
	conn, err := server.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names := tableNames(tables)

	// Two collections empty the pool of batches other tests released.
	runtime.GC()
	runtime.GC()
	want := map[string]string{}
	for _, name := range names {
		rep, err := fresh.Detect(context.Background(), Request{Conn: conn, DBName: "tenant", Tables: []string{name}, Mode: SequentialMode})
		if err != nil || len(rep.Tables) != 1 {
			t.Fatalf("%s: %v %v", name, err, rep.Errors)
		}
		want[name] = tableJSON(t, rep.Tables[0])
	}

	check := func(round string, rep *Report) {
		t.Helper()
		for _, tr := range rep.Tables {
			if got := tableJSON(t, tr); got != want[tr.Table] {
				t.Fatalf("%s, table %s:\n got %s\nwant %s", round, tr.Table, got, want[tr.Table])
			}
		}
		rep.Release()
	}
	backwards := slices.Clone(names)
	slices.Reverse(backwards)
	for round := 0; round < 2; round++ {
		for _, order := range [][]string{names, backwards} {
			for _, name := range order {
				rep, err := reused.Detect(context.Background(), Request{Conn: conn, DBName: "tenant", Tables: []string{name}, Mode: SequentialMode})
				if err != nil {
					t.Fatal(err)
				}
				check("one by one", rep)
			}
			for at := 0; at < len(order); at += 5 {
				rep, err := reused.Detect(context.Background(), Request{Conn: conn, DBName: "tenant", Tables: order[at:min(at+5, len(order))], Mode: PipelinedMode()})
				if err != nil {
					t.Fatal(err)
				}
				check("pipelined", rep)
			}
		}
	}
	if reused.Results().Stats().Hits == 0 {
		t.Fatal("no detect hit the result tier")
	}
}

// tableJSON is a table result's JSON form.
func tableJSON(t *testing.T, tr *TableResult) string {
	t.Helper()
	out, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
