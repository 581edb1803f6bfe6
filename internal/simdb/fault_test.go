package simdb

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
)

func faultTestServer(latency LatencyProfile) *Server {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(12), 7)
	s := NewServer(latency)
	s.LoadTables("tenant", ds.Test)
	return s
}

func mustConnect(t *testing.T, s *Server) *Conn {
	t.Helper()
	conn, err := s.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestTransientClassification(t *testing.T) {
	base := fmt.Errorf("socket reset")
	te := Transient("scan", base)
	if !IsTransient(te) {
		t.Fatal("Transient(...) must classify as transient")
	}
	if !IsTransient(fmt.Errorf("stage p2: %w", te)) {
		t.Fatal("wrapped transient errors must stay transient")
	}
	if !errors.Is(te, base) {
		t.Fatal("Unwrap must expose the cause")
	}
	if IsTransient(base) {
		t.Fatal("plain errors are not transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil is not transient")
	}
}

// TestFaultProfileDeterminism: two servers with equal profiles and equal
// operation sequences must fail identically — the property the fault
// battery in internal/core relies on.
func TestFaultProfileDeterminism(t *testing.T) {
	run := func() []string {
		s := faultTestServer(NoLatency)
		s.SetFaultProfile(FaultProfile{
			Seed:            42,
			ConnectFailProb: 0.2,
			QueryFailProb:   0.3,
			ScanFailProb:    0.3,
			MidScanDropProb: 0.3,
		})
		var outcomes []string
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			conn, err := s.Connect(ctx, "tenant")
			if err != nil {
				outcomes = append(outcomes, "connect:"+err.Error())
				continue
			}
			tables, err := conn.ListTables(ctx)
			if err != nil {
				outcomes = append(outcomes, "list:"+err.Error())
				conn.Close()
				continue
			}
			tm, err := conn.TableMetadata(ctx, tables[i%len(tables)])
			if err != nil {
				outcomes = append(outcomes, "meta:"+err.Error())
				conn.Close()
				continue
			}
			cols := []string{tm.Columns[0].Name}
			if _, err := conn.ScanColumns(ctx, tm.Name, cols, ScanOptions{Rows: 5}); err != nil {
				outcomes = append(outcomes, "scan:"+err.Error())
			} else {
				outcomes = append(outcomes, "ok")
			}
			conn.Close()
		}
		return outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	var failures int
	for _, o := range a {
		if o != "ok" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("profile with 0.2–0.3 probabilities should have injected at least one fault in 20 ops")
	}
}

func TestConnectFaultAlwaysFires(t *testing.T) {
	s := faultTestServer(NoLatency)
	s.SetFaultProfile(FaultProfile{Seed: 1, ConnectFailProb: 1})
	before := s.Accounting().Snapshot().Faults
	_, err := s.Connect(context.Background(), "tenant")
	if err == nil || !IsTransient(err) {
		t.Fatalf("want transient connect error, got %v", err)
	}
	if got := s.Accounting().Snapshot().Faults; got != before+1 {
		t.Fatalf("faults ledger = %d, want %d", got, before+1)
	}
}

func TestQueryFaultOnMetadataAPIs(t *testing.T) {
	s := faultTestServer(NoLatency)
	conn := mustConnect(t, s)
	defer conn.Close()
	ctx := context.Background()
	tables, err := conn.ListTables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultProfile(FaultProfile{Seed: 1, QueryFailProb: 1})
	if _, err := conn.ListTables(ctx); !IsTransient(err) {
		t.Fatalf("ListTables: want transient, got %v", err)
	}
	if _, err := conn.TableMetadata(ctx, tables[0]); !IsTransient(err) {
		t.Fatalf("TableMetadata: want transient, got %v", err)
	}
	if _, err := conn.SchemaMetadata(ctx); !IsTransient(err) {
		t.Fatalf("SchemaMetadata: want transient, got %v", err)
	}
	if _, err := conn.AnalyzeTable(ctx, tables[0], AnalyzeOptions{}); !IsTransient(err) {
		t.Fatalf("AnalyzeTable: want transient, got %v", err)
	}
}

func TestScanFaultUpfront(t *testing.T) {
	s := faultTestServer(NoLatency)
	conn := mustConnect(t, s)
	defer conn.Close()
	ctx := context.Background()
	tables, err := conn.ListTables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := conn.TableMetadata(ctx, tables[0])
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultProfile(FaultProfile{Seed: 1, ScanFailProb: 1})
	before := s.Accounting().Snapshot()
	rows, err := conn.ScanColumns(ctx, tm.Name, []string{tm.Columns[0].Name}, ScanOptions{Rows: 5})
	if !IsTransient(err) {
		t.Fatalf("want transient scan error, got %v", err)
	}
	if rows != nil {
		t.Fatal("failed scan must not return rows")
	}
	after := s.Accounting().Snapshot()
	if after.Faults != before.Faults+1 {
		t.Fatalf("faults = %d, want %d", after.Faults, before.Faults+1)
	}
	// An up-front failure transfers nothing: no columns/rows accounted.
	if after.ColumnsScanned != before.ColumnsScanned || after.RowsScanned != before.RowsScanned {
		t.Fatal("failed scan must not account scanned content")
	}
}

func TestMidScanDropDiscardsRows(t *testing.T) {
	s := faultTestServer(NoLatency)
	conn := mustConnect(t, s)
	defer conn.Close()
	ctx := context.Background()
	tables, _ := conn.ListTables(ctx)
	tm, err := conn.TableMetadata(ctx, tables[0])
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultProfile(FaultProfile{Seed: 3, MidScanDropProb: 1})
	before := s.Accounting().Snapshot()
	rows, err := conn.ScanColumns(ctx, tm.Name, []string{tm.Columns[0].Name}, ScanOptions{Rows: 5})
	if !IsTransient(err) {
		t.Fatalf("want transient mid-scan error, got %v", err)
	}
	if rows != nil {
		t.Fatal("dropped scan must not return partial rows")
	}
	after := s.Accounting().Snapshot()
	if after.ColumnsScanned != before.ColumnsScanned {
		t.Fatal("dropped scan must not account scanned columns")
	}
	if after.Queries != before.Queries+1 {
		t.Fatal("the aborted query round trip still counts as a query")
	}
}

// TestSlowQueryOnlyDelays: SlowQueryProb with no failure probabilities must
// never produce errors, only latency.
func TestSlowQueryOnlyDelays(t *testing.T) {
	s := faultTestServer(NoLatency)
	s.SetFaultProfile(FaultProfile{Seed: 5, SlowQueryProb: 1})
	conn := mustConnect(t, s)
	defer conn.Close()
	ctx := context.Background()
	tables, err := conn.ListTables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.TableMetadata(ctx, tables[0]); err != nil {
		t.Fatal(err)
	}
}

func TestZeroProfileDisarms(t *testing.T) {
	s := faultTestServer(NoLatency)
	s.SetFaultProfile(FaultProfile{Seed: 1, ScanFailProb: 1})
	s.SetFaultProfile(FaultProfile{})
	if p := s.FaultProfile(); p.enabled() {
		t.Fatalf("zero profile must disarm, got %+v", p)
	}
	conn := mustConnect(t, s)
	defer conn.Close()
	if _, err := conn.ListTables(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSleepRespectsContext: a cancelled context must abort latency sleeps
// immediately — both long ones and the zero-length ones of NoLatency
// servers, so deadline tests with NoLatency still observe cancellation.
func TestSleepRespectsContext(t *testing.T) {
	lat := LatencyProfile{ConnectionSetup: 10 * time.Second, QueryRoundTrip: 10 * time.Second, SamplingPenalty: 1}
	s := faultTestServer(lat)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.Connect(ctx, "tenant"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled connect slept %v", elapsed)
	}

	// Deadline mid-sleep: the sleep must end near the deadline, not after
	// the full 10 s cost.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	start = time.Now()
	if _, err := s.Connect(dctx, "tenant"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline sleep took %v", elapsed)
	}

	// Zero-latency server, already-cancelled context: still observed.
	zs := faultTestServer(NoLatency)
	if _, err := zs.Connect(ctx, "tenant"); !errors.Is(err, context.Canceled) {
		t.Fatalf("NoLatency server must still observe cancellation, got %v", err)
	}
}

func TestAccountingRetryLedger(t *testing.T) {
	s := faultTestServer(NoLatency)
	s.Accounting().AddRetry()
	s.Accounting().AddRetry()
	if got := s.Accounting().Snapshot().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	s.Accounting().Reset()
	snap := s.Accounting().Snapshot()
	if snap.Retries != 0 || snap.Faults != 0 {
		t.Fatalf("reset left %+v", snap)
	}
}

// TestOneShotTransientFault: InjectScanFault with a Transient error is the
// canonical "retry succeeds" fixture — the first scan fails, the second
// works.
func TestOneShotTransientFault(t *testing.T) {
	s := faultTestServer(NoLatency)
	conn := mustConnect(t, s)
	defer conn.Close()
	ctx := context.Background()
	tables, _ := conn.ListTables(ctx)
	tm, err := conn.TableMetadata(ctx, tables[0])
	if err != nil {
		t.Fatal(err)
	}
	s.InjectScanFault(tm.Name, Transient("scan", fmt.Errorf("blip")))
	cols := []string{tm.Columns[0].Name}
	if _, err := conn.ScanColumns(ctx, tm.Name, cols, ScanOptions{Rows: 3}); !IsTransient(err) {
		t.Fatalf("first scan: want transient, got %v", err)
	}
	if _, err := conn.ScanColumns(ctx, tm.Name, cols, ScanOptions{Rows: 3}); err != nil {
		t.Fatalf("second scan should succeed, got %v", err)
	}
}
