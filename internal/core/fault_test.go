package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simdb"
)

// --- retry policy unit tests -----------------------------------------------

func retryDetector(t *testing.T) *Detector {
	t.Helper()
	m, _ := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = time.Microsecond // keep unit tests fast
	opts.RetryMaxDelay = 10 * time.Microsecond
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRetryTransientUntilSuccess(t *testing.T) {
	d := retryDetector(t)
	acct := &simdb.Accounting{}
	calls := 0
	n, err := d.retry(context.Background(), acct, func() error {
		calls++
		if calls < 3 {
			return simdb.Transient("scan", fmt.Errorf("blip %d", calls))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || calls != 3 {
		t.Fatalf("retries=%d calls=%d, want 2/3", n, calls)
	}
	if got := acct.Snapshot().Retries; got != 2 {
		t.Fatalf("db ledger retries = %d, want 2", got)
	}
	if got := d.FaultStats().Retries; got != 2 {
		t.Fatalf("detector ledger retries = %d, want 2", got)
	}
}

func TestRetryExhaustsAtMaxRetries(t *testing.T) {
	d := retryDetector(t)
	calls := 0
	boom := simdb.Transient("query", fmt.Errorf("always down"))
	n, err := d.retry(context.Background(), nil, func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if want := d.Opts.MaxRetries + 1; calls != want {
		t.Fatalf("calls = %d, want %d", calls, want)
	}
	if n != d.Opts.MaxRetries {
		t.Fatalf("retries = %d, want %d", n, d.Opts.MaxRetries)
	}
}

func TestRetryPermanentErrorsNotRetried(t *testing.T) {
	d := retryDetector(t)
	calls := 0
	boom := fmt.Errorf("unknown table")
	n, err := d.retry(context.Background(), nil, func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 || n != 0 {
		t.Fatalf("err=%v calls=%d retries=%d, want boom/1/0", err, calls, n)
	}
}

func TestRetryGivesUpNearDeadline(t *testing.T) {
	m, _ := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = time.Second // any backoff would cross the deadline
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	n, rerr := d.retry(ctx, nil, func() error {
		calls++
		return simdb.Transient("scan", fmt.Errorf("blip"))
	})
	if rerr == nil || calls != 1 || n != 0 {
		t.Fatalf("err=%v calls=%d retries=%d, want err/1/0", rerr, calls, n)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retry slept %v past a 50 ms deadline", elapsed)
	}
}

func TestBackoffGrowsAndIsCapped(t *testing.T) {
	m, _ := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = time.Millisecond
	opts.RetryMaxDelay = 8 * time.Millisecond
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 10; attempt++ {
		got := d.retrier.Backoff(attempt)
		// Pre-jitter delay is min(base·2ᵏ, max); jitter adds at most 50 %.
		if limit := opts.RetryMaxDelay + opts.RetryMaxDelay/2; got > limit {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, got, limit)
		}
		if got < opts.RetryBaseDelay {
			t.Fatalf("attempt %d: backoff %v below base", attempt, got)
		}
	}
}

func TestMergeTypes(t *testing.T) {
	got := mergeTypes([]string{"email", "city"}, []string{"email", "ip_address"})
	want := []string{"city", "email", "ip_address"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := mergeTypes([]string{"a"}, nil); len(out) != 1 || out[0] != "a" {
		t.Fatalf("nil merge: %v", out)
	}
}

// --- end-to-end fault battery ----------------------------------------------

// TestTransientScanRetrySucceeds: a one-shot transient fault per table means
// the first scan attempt fails and the retry succeeds — full results, no
// degradation, and the retry shows up in both ledgers.
func TestTransientScanRetrySucceeds(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = 10 * time.Microsecond
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ds)
	for _, tb := range ds.Test {
		s.InjectScanFault(tb.Name, simdb.Transient("scan", fmt.Errorf("connection reset")))
	}
	rep, err := d.DetectDatabase(context.Background(), s, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("transient faults must be absorbed by retries, got %v", rep.Errors)
	}
	if rep.ScannedColumns == 0 {
		t.Skip("no table reached P2 in this run")
	}
	if rep.Retries == 0 {
		t.Fatal("report must account the retries that absorbed the faults")
	}
	if got := s.Accounting().Snapshot().Retries; got == 0 {
		t.Fatal("server ledger must account client retries")
	}
	if rep.DegradedColumns != 0 {
		t.Fatalf("retried-and-recovered columns must not be degraded, got %d", rep.DegradedColumns)
	}
}

// TestPersistentScanFaultDegrades: when every scan attempt fails, uncertain
// columns keep their Phase-1 answer, marked degraded with the failure
// reason — and the batch still types every column of every table.
func TestPersistentScanFaultDegrades(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = 10 * time.Microsecond
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ds)
	s.SetFaultProfile(simdb.FaultProfile{Seed: 9, ScanFailProb: 1})
	rep, err := d.DetectDatabase(context.Background(), s, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("degradation must not surface errors, got %v", rep.Errors)
	}
	if len(rep.Tables) != len(ds.Test) {
		t.Fatalf("tables = %d, want %d", len(rep.Tables), len(ds.Test))
	}
	if rep.UncertainColumns == 0 {
		t.Skip("no uncertain column in this run")
	}
	if rep.DegradedColumns != rep.UncertainColumns {
		t.Fatalf("degraded %d != uncertain %d", rep.DegradedColumns, rep.UncertainColumns)
	}
	if rep.ScannedColumns != 0 {
		t.Fatalf("no scan can succeed, yet %d columns scanned", rep.ScannedColumns)
	}
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			if c.Uncertain {
				if !c.Degraded || !strings.Contains(c.DegradeReason, "content scan failed") {
					t.Fatalf("column %s.%s: degraded=%v reason=%q", tr.Table, c.Column, c.Degraded, c.DegradeReason)
				}
				if c.Phase != 1 {
					t.Fatalf("degraded column must carry its Phase-1 answer, got phase %d", c.Phase)
				}
			} else if c.Degraded {
				t.Fatalf("certain column %s.%s must not degrade", tr.Table, c.Column)
			}
		}
	}
	fs := d.FaultStats()
	if fs.FailureDegraded == 0 || fs.Retries == 0 {
		t.Fatalf("fault ledger not updated: %+v", fs)
	}
	if s.Accounting().Snapshot().Faults == 0 {
		t.Fatal("server fault ledger not updated")
	}
}

// TestDeadlineImminentDegradesPreemptively: a huge DeadlineMargin makes any
// finite deadline "imminent", so Phase 2 is skipped deterministically and
// every uncertain column degrades — no timing races involved.
func TestDeadlineImminentDegradesPreemptively(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.DeadlineMargin = time.Hour
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := d.DetectDatabase(ctx, newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}
	if rep.UncertainColumns == 0 {
		t.Skip("no uncertain column in this run")
	}
	if rep.ScannedColumns != 0 {
		t.Fatal("imminent deadline must skip content scans entirely")
	}
	if rep.DegradedColumns != rep.UncertainColumns {
		t.Fatalf("degraded %d != uncertain %d", rep.DegradedColumns, rep.UncertainColumns)
	}
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			if c.Degraded && c.DegradeReason != "deadline imminent" {
				t.Fatalf("reason = %q", c.DegradeReason)
			}
		}
	}
	if fs := d.FaultStats(); fs.DeadlineDegraded == 0 {
		t.Fatalf("deadline degradations not accounted: %+v", fs)
	}
}

// TestCancellationAborts: a genuine cancellation (not a deadline) must abort
// detection with an error — the caller walked away; there is nobody to
// degrade for.
func TestCancellationAborts(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.DetectDatabase(ctx, newServer(ds), "tenant", SequentialMode); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExpiredDeadlineBeforeConnect: with the deadline already gone, even the
// connection fails; DetectDatabase reports DeadlineExceeded (the service
// layer turns this into a degraded 200, not a 500).
func TestExpiredDeadlineBeforeConnect(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := d.DetectDatabase(ctx, newServer(ds), "tenant", SequentialMode); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestFaultKindBattery drives the whole detection path against each fault
// kind with a seeded profile. Whatever the kind, the invariants hold: the
// call either returns a coherent report (every loaded table is accounted as
// a result or an error, every result column carries a type list) or a
// transient/context error — never a panic, never a half-filled report.
func TestFaultKindBattery(t *testing.T) {
	m, ds := trainedModel(t)
	cases := []struct {
		name    string
		profile simdb.FaultProfile
	}{
		{"connect", simdb.FaultProfile{Seed: 21, ConnectFailProb: 0.5}},
		// A bulk detect makes one metadata query, the schema read: seed 22's
		// second draw (the connect is the first) faults it, and the retry
		// succeeds.
		{"query", simdb.FaultProfile{Seed: 22, QueryFailProb: 0.3}},
		{"scan", simdb.FaultProfile{Seed: 23, ScanFailProb: 0.5}},
		{"midscan", simdb.FaultProfile{Seed: 24, MidScanDropProb: 0.5}},
		{"slow", simdb.FaultProfile{Seed: 25, SlowQueryProb: 0.8, SlowQueryFactor: 2}},
		{"everything", simdb.FaultProfile{Seed: 26, ConnectFailProb: 0.2, QueryFailProb: 0.2, ScanFailProb: 0.4, MidScanDropProb: 0.3, SlowQueryProb: 0.3}},
	}
	for _, mode := range []ExecMode{SequentialMode, PipelinedMode()} {
		for _, tc := range cases {
			name := tc.name
			if mode.Pipelined {
				name += "/pipelined"
			}
			t.Run(name, func(t *testing.T) {
				opts := DefaultOptions()
				opts.RetryBaseDelay = 10 * time.Microsecond
				d, err := NewDetector(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				s := newServer(ds)
				s.SetFaultProfile(tc.profile)
				rep, err := d.DetectDatabase(context.Background(), s, "tenant", mode)
				if err != nil {
					// Only an unrecoverable connect/list failure may escape,
					// and it must be the transient fault itself.
					if !simdb.IsTransient(err) {
						t.Fatalf("non-transient batch error: %v", err)
					}
					return
				}
				if len(rep.Tables)+len(rep.Errors) != len(ds.Test) {
					t.Fatalf("tables %d + errors %d != %d", len(rep.Tables), len(rep.Errors), len(ds.Test))
				}
				for _, tr := range rep.Tables {
					if len(tr.Columns) == 0 {
						t.Fatalf("table %s: empty result", tr.Table)
					}
					for _, c := range tr.Columns {
						if c.Degraded && c.DegradeReason == "" {
							t.Fatalf("column %s.%s degraded without reason", tr.Table, c.Column)
						}
						if c.Probs == nil {
							t.Fatalf("column %s.%s: missing probabilities", tr.Table, c.Column)
						}
					}
				}
				// Deterministic injection: per-query/per-scan kinds draw once
				// per operation, so across a whole batch at these
				// probabilities at least one fault must fire. Connect draws
				// only once per batch and slow never faults, so they are
				// exempt.
				if tc.name != "slow" && tc.name != "connect" && s.Accounting().Snapshot().Faults == 0 {
					t.Fatal("profile fired no faults — test is vacuous")
				}
			})
		}
	}
}

// TestPipelinedFaultsNoGoroutineLeak: a pipelined batch over a flaky server
// with a deadline must wind down all of its workers.
func TestPipelinedFaultsNoGoroutineLeak(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.RetryBaseDelay = 10 * time.Microsecond
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s := newServer(ds)
		s.SetFaultProfile(simdb.FaultProfile{Seed: int64(30 + i), ScanFailProb: 0.5, QueryFailProb: 0.2})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = d.DetectDatabase(ctx, s, "tenant", PipelinedMode())
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestDetectTableDeadlineSalvage: DetectTable under an expiring deadline
// either fails with a context error before Phase 1 or returns a salvaged
// result with unresolved columns degraded — it must never return a result
// missing columns.
func TestDetectTableDeadlineSalvage(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.DeadlineMargin = time.Hour // any live deadline is "imminent"
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ds)
	conn, err := s.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tb := range ds.Test[:3] {
		tr, err := d.DetectTable(ctx, conn, "tenant", tb.Name)
		if err != nil {
			t.Fatalf("table %s: %v", tb.Name, err)
		}
		if len(tr.Columns) != len(tb.Columns) {
			t.Fatalf("table %s: %d columns returned, want %d", tb.Name, len(tr.Columns), len(tb.Columns))
		}
		if tr.ScannedColumns != 0 {
			t.Fatal("imminent deadline must prevent scans")
		}
	}
}
