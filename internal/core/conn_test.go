package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/simdb"
)

// canonReport serializes a whole Report for byte comparison with the fields
// that legitimately differ between two runs of the same request (wall time)
// zeroed.
func canonReport(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Duration = 0
	if len(c.Errors) != 0 {
		t.Fatalf("report carries errors: %v", c.Errors)
	}
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDetectDatabaseOnMatchesWrapper pins the split of DetectDatabase:
// the wrapper (connect, run, close) and the body (Detect) run over a
// connection the caller opened return the same Report bytes, sequential and pipelined; the
// wrapper still pays exactly one connection per call and closes it; the body
// neither opens nor closes one; and a retried connect still lands in
// Report.Retries.
func TestDetectDatabaseOnMatchesWrapper(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mode ExecMode
	}{
		{"sequential", SequentialMode},
		{"pipelined", ExecMode{Pipelined: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, ds := phase2Detector(t, 24)
			server := newServerWith(allTables(ds))
			wrapped, err := det.DetectDatabase(ctx, server, "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if wrapped.ScannedColumns == 0 {
				t.Fatal("no column reached Phase 2")
			}
			if got := server.Accounting().Snapshot().Connections; got != 1 {
				t.Fatalf("wrapper opened %d connections, want 1", got)
			}

			det2, _ := phase2Detector(t, 24) // fresh caches
			conn, retries, err := det2.Connect(ctx, server, "tenant")
			if err != nil || retries != 0 {
				t.Fatalf("Connect: retries %d, err %v", retries, err)
			}
			over, err := det2.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := server.Accounting().Snapshot().Connections; got != 2 {
				t.Fatalf("body opened a connection of its own: %d connections, want 2", got)
			}
			if a, b := canonReport(t, wrapped), canonReport(t, over); a != b {
				t.Fatalf("wrapper and body differ\nwrapper: %s\nbody:    %s", a, b)
			}
			// The body left the connection open and usable; closing it now
			// is its first close.
			if _, err := conn.ListTables(ctx); err != nil {
				t.Fatalf("connection unusable after Detect: %v", err)
			}
			if err := conn.Close(); err != nil {
				t.Fatalf("body closed the caller's connection: %v", err)
			}
		})
	}

	t.Run("connect retries counted", func(t *testing.T) {
		det, ds := phase2Detector(t, 8)
		tables := allTables(ds)
		clean, err := det.DetectDatabase(ctx, newServerWith(tables), "tenant", SequentialMode)
		if err != nil {
			t.Fatal(err)
		}
		// Seed 9's first two connect draws fail and its third succeeds.
		flaky := newServerWith(tables)
		flaky.SetFaultProfile(simdb.FaultProfile{Seed: 9, ConnectFailProb: 0.5})
		det2, _ := phase2Detector(t, 8)
		rep, err := det2.DetectDatabase(ctx, flaky, "tenant", SequentialMode)
		if err != nil {
			t.Fatal(err)
		}
		snap := flaky.Accounting().Snapshot()
		if snap.Faults == 0 || rep.Retries != snap.Faults || snap.Retries != snap.Faults {
			t.Fatalf("report retries %d, ledger retries %d, connect faults %d: want all equal and > 0",
				rep.Retries, snap.Retries, snap.Faults)
		}
		if snap.Connections != 1 {
			t.Fatalf("connections = %d, want 1 (failed attempts open none)", snap.Connections)
		}
		rep.Retries = 0
		if a, b := canonReport(t, clean), canonReport(t, rep); a != b {
			t.Fatal("a retried connect changed the report beyond its retry count")
		}
	})
}

// TestDetectDatabaseOnSchemaReadFault: the schema read is a bulk detect's one
// metadata query. A transient fault on it is retried, and the report is the
// fault-free one but for its retry count; a fault that outlasts the retries
// fails the call before any table runs, as a failed ListTables did.
func TestDetectDatabaseOnSchemaReadFault(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mode ExecMode
	}{
		{"sequential", SequentialMode},
		{"pipelined", ExecMode{Pipelined: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, ds := phase2Detector(t, 8)
			tables := allTables(ds)
			clean, err := det.DetectDatabase(ctx, newServerWith(tables), "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			// run arms the profile on an open connection, so the schema read
			// takes the injector's first draw.
			run := func(p simdb.FaultProfile) (*Report, error, simdb.AccountingSnapshot) {
				t.Helper()
				server := newServerWith(tables)
				det2, _ := phase2Detector(t, 8) // fresh caches
				conn, _, err := det2.Connect(ctx, server, "tenant")
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				server.SetFaultProfile(p)
				before := server.Accounting().Snapshot()
				rep, err := det2.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: tc.mode})
				snap := server.Accounting().Snapshot()
				snap.Queries -= before.Queries
				return rep, err, snap
			}

			// Seed 2's first draw fails at p = 0.5 and its second succeeds.
			rep, err, snap := run(simdb.FaultProfile{Seed: 2, QueryFailProb: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if snap.Faults != 1 || snap.Retries != 1 || rep.Retries != 1 {
				t.Fatalf("faults %d, ledger retries %d, report retries %d: want the one schema-read fault retried once",
					snap.Faults, snap.Retries, rep.Retries)
			}
			rep.Retries = 0
			if a, b := canonReport(t, clean), canonReport(t, rep); a != b {
				t.Fatalf("a retried schema read changed the report\nclean:   %s\nretried: %s", a, b)
			}

			rep, err, snap = run(simdb.FaultProfile{Seed: 2, QueryFailProb: 1})
			if rep != nil || !simdb.IsTransient(err) {
				t.Fatalf("report %v, err %v: want no report and the transient fault", rep, err)
			}
			if want := det.Opts.MaxRetries + 1; snap.Queries != want || snap.Faults != want || snap.ColumnsScanned != 0 {
				t.Fatalf("queries %d, faults %d, scanned %d: want %d failed schema reads and nothing else",
					snap.Queries, snap.Faults, snap.ColumnsScanned, want)
			}
		})
	}
}

// TestDetectDatabaseOnConcurrentCacheCounts: a report's latent-tier hits and
// misses are its own request's lookups, counted per table in s4, not a diff
// of the detector-wide cache counters that a concurrent request also moves.
// Two tenants share one detector; run at once, each reports exactly what it
// reports alone (paper latency stretches both runs so they overlap).
func TestDetectDatabaseOnConcurrentCacheCounts(t *testing.T) {
	ctx := context.Background()
	det, ds := phase2Detector(t, 12)
	mode := ExecMode{Pipelined: true}
	servers := [2]*simdb.Server{}
	for i, tables := range [][]*corpus.Table{ds.Train, ds.Val} {
		servers[i] = simdb.NewServer(simdb.PaperLatency(1))
		servers[i].LoadTables("tenant", tables)
	}
	detect := func(i int) (*Report, error) {
		conn, _, err := det.Connect(ctx, servers[i], "tenant")
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		return det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: mode})
	}
	var alone [2]*Report
	for i := range servers {
		rep, err := detect(i)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits == 0 {
			t.Fatalf("tenant %d: no latent hit, Phase 2 never read the tier", i)
		}
		alone[i] = rep
	}
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = detect(i)
		}(i)
	}
	wg.Wait()
	for i := range servers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		a, c := alone[i], reps[i]
		if c.CacheHits != a.CacheHits || c.CacheMisses != a.CacheMisses {
			t.Fatalf("tenant %d: %d hits, %d misses beside another request; %d and %d alone",
				i, c.CacheHits, c.CacheMisses, a.CacheHits, a.CacheMisses)
		}
		if canonReport(t, c) != canonReport(t, a) {
			t.Fatalf("tenant %d reports differently beside another request", i)
		}
	}
}
