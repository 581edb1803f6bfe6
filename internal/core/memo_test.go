package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// canonAnswer is rep's tables as a response carries them: canonTables plus
// each column's scanned flag, which the JSON form leaves out.
func canonAnswer(t *testing.T, rep *Report) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(canonTables(t, rep))
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			fmt.Fprintf(&b, "|%s.%s scanned=%v", tr.Table, c.Column, c.Scanned)
		}
	}
	return b.String()
}

// memoDetect detects tables (every table when none) on srv's tenant over a
// connection of its own, with m pinned when non-nil, and returns the
// canonical answer and what the tenant's ledger gained.
func memoDetect(t *testing.T, d *Detector, srv *simdb.Server, mode ExecMode, m *adtd.Model, tables ...string) (string, simdb.AccountingSnapshot) {
	t.Helper()
	ctx := context.Background()
	conn, err := srv.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := srv.Accounting().Snapshot()
	rep, err := d.Detect(ctx, Request{Conn: conn, DBName: "tenant", Tables: tables, Mode: mode, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if len(rep.Errors) != 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}
	after := srv.Accounting().Snapshot()
	return canonAnswer(t, rep), simdb.AccountingSnapshot{
		Queries:   after.Queries - before.Queries,
		CellsRead: after.CellsRead - before.CellsRead,
		Faults:    after.Faults - before.Faults,
	}
}

// coldAnswer is the reference: a sequential detect of tables on a fresh
// detector serving m.
func coldAnswer(t *testing.T, m *adtd.Model, opts Options, srv *simdb.Server, tables ...string) string {
	t.Helper()
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ans, _ := memoDetect(t, d, srv, SequentialMode, nil, tables...)
	return ans
}

// cloneTables deep-copies tables, so a server's writes leave the source
// alone.
func cloneTables(src []*corpus.Table) []*corpus.Table {
	out := make([]*corpus.Table, len(src))
	for i, tb := range src {
		c := *tb
		c.Columns = make([]*corpus.Column, len(tb.Columns))
		for k, col := range tb.Columns {
			cc := *col
			cc.Values = slices.Clone(col.Values)
			c.Columns[k] = &cc
		}
		out[i] = &c
	}
	return out
}

// mixedBand returns det's options with α at the median of the columns'
// largest Phase-1 probability, so that about half the columns of tables are
// certain (Phase 1 answers them) and the rest go to Phase 2.
func mixedBand(t *testing.T, det *Detector, tables []*corpus.Table) Options {
	t.Helper()
	opts := det.Opts
	probeOpts := opts
	probeOpts.Alpha, probeOpts.Beta = 0.5, 0.5
	probe, err := NewDetector(det.Model(), probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := probe.DetectDatabase(context.Background(), newServerWith(tables), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	var maxes []float64
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			maxes = append(maxes, slices.Max(c.Probs))
		}
	}
	slices.Sort(maxes)
	opts.Alpha = maxes[len(maxes)/2]
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestResultTierMemoDifferential: between repeated detects, random cells of
// random tables are written through simdb's write hook, sequentially and
// pipelined, at GOMAXPROCS 1 and 2, over a band that leaves some columns to
// Phase 1 and sends the rest to Phase 2. Every answer equals a cold
// detector's; a table unchanged since its last clean answer costs the one
// schema query and no cell, one table or the whole database at once; a
// written table is scanned again. A second server holding tables of the
// same names and metadata but other content never gets the first one's
// answers, nor does a swapped-in or a pinned model get the serving one's.
func TestResultTierMemoDifferential(t *testing.T) {
	base, ds := phase2Detector(t, 12)
	src := allTables(ds)
	names := tableNames(src)
	opts := mixedBand(t, base, src)
	opts.ResultCacheBytes = 4 << 20
	m := base.Model()
	other, err := adtd.New(m.Cfg, m.Tok, m.Types, 8)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := adtd.New(m.Cfg, m.Tok, m.Types, 9)
	if err != nil {
		t.Fatal(err)
	}
	pinned.SetEval()
	for _, procs := range []int{1, 2} {
		for k, mode := range execModes {
			t.Run(fmt.Sprintf("procs=%d/pipelined=%v", procs, mode.Pipelined), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rng := rand.New(rand.NewSource(int64(10*procs + k)))
				srv := newServerWith(cloneTables(src))
				det, err := NewDetector(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				// check detects one table on det and the reference; memoized
				// says the table is unchanged since det's last clean answer.
				check := func(srv *simdb.Server, model *adtd.Model, pin bool, name string, memoized bool) {
					t.Helper()
					var p *adtd.Model
					if pin {
						p = model
					}
					got, cost := memoDetect(t, det, srv, mode, p, name)
					want := coldAnswer(t, model, opts, srv, name)
					if got != want {
						t.Fatalf("%s: answer differs from a cold detector's\n got  %.300s\n want %.300s", name, got, want)
					}
					scans := strings.Contains(want, "scanned=true")
					switch {
					case memoized && (cost.Queries != 1 || cost.CellsRead != 0):
						t.Fatalf("%s unchanged: %d queries, %d cells; want the schema read alone", name, cost.Queries, cost.CellsRead)
					case !memoized && scans && cost.CellsRead == 0:
						t.Fatalf("%s: answered without a scan; its content changed or was never read by this model", name)
					}
				}

				dirty := make(map[string]bool, len(names))
				for _, n := range names {
					dirty[n] = true
				}
				for round := 0; round < 4; round++ {
					for _, tb := range src {
						if rng.Intn(3) != 0 {
							continue
						}
						col := tb.Columns[rng.Intn(len(tb.Columns))]
						row := rng.Intn(min(tb.Rows(), opts.RowsToRead))
						val := ""
						if rng.Intn(4) != 0 {
							val = fmt.Sprintf("w%d", rng.Intn(1000))
						}
						if err := srv.WriteCell("tenant", tb.Name, col.Name, row, val); err != nil {
							t.Fatal(err)
						}
						dirty[tb.Name] = true
					}
					for _, i := range rng.Perm(len(names)) {
						check(srv, m, false, names[i], !dirty[names[i]])
						dirty[names[i]] = false
					}
					got, cost := memoDetect(t, det, srv, mode, nil)
					if want := coldAnswer(t, m, opts, srv); got != want {
						t.Fatalf("round %d: whole-database answer differs from a cold detector's", round)
					}
					if cost.Queries != 1 || cost.CellsRead != 0 {
						t.Fatalf("round %d: whole database unchanged: %d queries, %d cells; want the schema read alone", round, cost.Queries, cost.CellsRead)
					}
				}

				// A server of the same names and metadata whose every table
				// differs in the first cell the content tower reads.
				twinTables := cloneTables(src)
				for _, tb := range twinTables {
					for _, c := range tb.Columns {
						if k := slices.IndexFunc(c.Values, func(v string) bool { return v != "" }); k >= 0 {
							c.Values[k] += "~"
						}
					}
				}
				twin := newServerWith(twinTables)
				for _, name := range names {
					check(twin, m, false, name, false)
					check(srv, m, false, name, true)
				}

				det.SwapModel(other)
				for _, name := range names {
					check(srv, other, false, name, false)
				}
				det.SwapModel(m)
				for _, name := range names {
					check(srv, m, false, name, true)
					check(srv, pinned, true, name, false)
				}
			})
		}
	}
}

// TestResultTierMemoAfterAnalyze: with histograms on, the first detect runs
// ANALYZE, which publishes a new view under a new version; the memo records
// that view, the one s1 used, so the next detect is answered by the schema
// read alone. A write keeps the statistics and moves the version: the table
// is scanned again, with no second ANALYZE.
func TestResultTierMemoAfterAnalyze(t *testing.T) {
	base, ds := phase2Detector(t, 4)
	opts := base.Opts
	opts.UseHistogram, opts.ResultCacheBytes = true, 4<<20
	tb := allTables(ds)[0]
	for _, mode := range execModes {
		srv := newServerWith(cloneTables([]*corpus.Table{tb}))
		det, err := NewDetector(base.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		first, cost := memoDetect(t, det, srv, mode, nil, tb.Name)
		if cost.Queries != 3 || cost.CellsRead == 0 {
			t.Fatalf("pipelined=%v: first detect: %d queries, %d cells; want schema, ANALYZE and scan", mode.Pipelined, cost.Queries, cost.CellsRead)
		}
		got, cost := memoDetect(t, det, srv, mode, nil, tb.Name)
		if cost.Queries != 1 || cost.CellsRead != 0 {
			t.Fatalf("pipelined=%v: repeat detect: %d queries, %d cells; want the schema read alone", mode.Pipelined, cost.Queries, cost.CellsRead)
		}
		if got != first || got != coldAnswer(t, base.Model(), opts, srv, tb.Name) {
			t.Fatalf("pipelined=%v: the memo's answer differs from the first and from a cold detector's", mode.Pipelined)
		}
		if err := srv.WriteCell("tenant", tb.Name, tb.Columns[0].Name, 0, "written"); err != nil {
			t.Fatal(err)
		}
		got, cost = memoDetect(t, det, srv, mode, nil, tb.Name)
		if cost.Queries != 2 || cost.CellsRead == 0 {
			t.Fatalf("pipelined=%v: after a write: %d queries, %d cells; want schema and scan", mode.Pipelined, cost.Queries, cost.CellsRead)
		}
		if got != coldAnswer(t, base.Model(), opts, srv, tb.Name) {
			t.Fatalf("pipelined=%v: after a write the answer differs from a cold detector's", mode.Pipelined)
		}
	}
}

// TestResultTierMemoUnderDeadline: a memo answer reads nothing after the
// schema read, so a deadline that leaves Phase 2 no time still returns it
// whole, byte-equal to the reference without a deadline, while a table
// that changed degrades its uncertain columns "deadline imminent".
func TestResultTierMemoUnderDeadline(t *testing.T) {
	base, ds := phase2Detector(t, 4)
	opts := base.Opts
	opts.ResultCacheBytes = 4 << 20
	tables := allTables(ds)
	a, b := tables[0].Name, tables[1].Name
	for _, mode := range execModes {
		srv := newServerWith(cloneTables(tables))
		det, err := NewDetector(base.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		memoDetect(t, det, srv, SequentialMode, nil, a, b)
		if err := srv.WriteCell("tenant", b, tables[1].Columns[0].Name, 0, "written"); err != nil {
			t.Fatal(err)
		}
		det.Opts.DeadlineMargin = time.Hour
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
		conn, err := srv.Connect(ctx, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Tables: []string{a}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonAnswer(t, rep), coldAnswer(t, base.Model(), opts, srv, a); got != want {
			t.Fatalf("pipelined=%v: the memo answer under the deadline differs from the reference\n got  %s\n want %s", mode.Pipelined, got, want)
		}
		rep.Release()
		rep, err = det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Tables: []string{b}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Tables[0].Columns {
			if c.Uncertain && (!c.Degraded || c.DegradeReason != errDeadlineImminent.Error()) {
				t.Fatalf("pipelined=%v: written table column %s: degraded=%v reason=%q", mode.Pipelined, c.Column, c.Degraded, c.DegradeReason)
			}
		}
		rep.Release()
		conn.Close()
		cancel()
	}
}

// TestResultTierMemoDrawsNoScanFault: a memo answer makes no scan, so an
// armed scan fault stays armed through it; once a write sends the table
// back through the stages, the scan draws the fault and the table degrades.
// A degraded answer is not remembered: the next detect scans again, and the
// clean answer it gets is.
func TestResultTierMemoDrawsNoScanFault(t *testing.T) {
	base, ds := phase2Detector(t, 4)
	opts := base.Opts
	opts.ResultCacheBytes = 4 << 20
	tb := allTables(ds)[0]
	srv := newServerWith(cloneTables([]*corpus.Table{tb}))
	det, err := NewDetector(base.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := memoDetect(t, det, srv, SequentialMode, nil)
	srv.InjectScanFault(tb.Name, errors.New("injected"))
	got, cost := memoDetect(t, det, srv, SequentialMode, nil)
	if got != want || cost.Faults != 0 || cost.CellsRead != 0 {
		t.Fatalf("memo answer under an armed fault: equal=%v, %d faults, %d cells", got == want, cost.Faults, cost.CellsRead)
	}
	if err := srv.WriteCell("tenant", tb.Name, tb.Columns[0].Name, 0, "written"); err != nil {
		t.Fatal(err)
	}
	got, cost = memoDetect(t, det, srv, SequentialMode, nil)
	if cost.Faults != 1 || !strings.Contains(got, "injected") {
		t.Fatalf("after a write: %d faults; the scan must draw the armed fault and degrade:\n%s", cost.Faults, got)
	}
	for i, memoized := range []bool{false, true} {
		got, cost = memoDetect(t, det, srv, SequentialMode, nil)
		if got != coldAnswer(t, base.Model(), opts, srv) {
			t.Fatalf("detect %d after the fault: answer differs from a cold detector's", i)
		}
		if scanned := cost.CellsRead > 0; scanned == memoized {
			t.Fatalf("detect %d after the fault: %d cells read, want a scan only after the degraded answer", i, cost.CellsRead)
		}
	}
}
