package simdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// scanCase is one draw of the scan-cut property: a table of rows × cols
// cells, each column blank at a rate of its own, and a scan of some of its
// columns with m rows, n cells and a strategy.
type scanCase struct {
	seed       int64 // draws the cells and the column list
	rows, cols int
	m, n       int
	sample     bool
	scanSeed   int64
}

// ledgerMove is what one scan added to the accounting ledger.
type ledgerMove struct {
	queries, columns, rows, cells, bytes int
}

func moved(before, after simdb.AccountingSnapshot) ledgerMove {
	return ledgerMove{
		queries: after.Queries - before.Queries,
		columns: after.ColumnsScanned - before.ColumnsScanned,
		rows:    after.RowsScanned - before.RowsScanned,
		cells:   after.CellsRead - before.CellsRead,
		bytes:   after.BytesRead - before.BytesRead,
	}
}

// visible is what the content model reads of values: adtd.VisibleCells.
func visible(values []string, n int) []string {
	var out []string
	adtd.VisibleCells(values, n, func(v string) { out = append(out, v) })
	return out
}

// checkScanCells: the Cells: 0 scan returns every row of the m-row window
// (the first m, or the seeded sample in row order) and moves the ledger by
// one query, the columns, the window and window × columns cells; the
// Cells: n scan returns, per column, exactly the visible cells of that scan
// (n ≤ 0: the same values) and moves the ledger by one query, the columns,
// the window, and the cells and bytes it returned. A caller's append to one
// column never writes into another.
func checkScanCells(t *testing.T, tc scanCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(tc.seed))
	tb := &corpus.Table{Name: "t"}
	for c := 0; c < tc.cols; c++ {
		col := &corpus.Column{Name: fmt.Sprintf("c%d", c), Values: make([]string, tc.rows)}
		blank := rng.Float64()
		for r := range col.Values {
			if rng.Float64() >= blank {
				col.Values[r] = strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(4))
			}
		}
		tb.Columns = append(tb.Columns, col)
	}
	var names []string
	for _, c := range rng.Perm(tc.cols)[:1+rng.Intn(tc.cols)] {
		names = append(names, tb.Columns[c].Name)
	}
	strategy := simdb.FirstRows
	window := tc.m
	if window <= 0 || window > tc.rows {
		window = tc.rows
	}
	rowIdx := make([]int, window)
	for i := range rowIdx {
		rowIdx[i] = i
	}
	if tc.sample {
		strategy = simdb.RandomSample
		rowIdx = rand.New(rand.NewSource(tc.scanSeed)).Perm(tc.rows)[:window]
		sort.Ints(rowIdx)
	}

	s := simdb.NewServer(simdb.NoLatency)
	s.LoadTables("db", []*corpus.Table{tb})
	conn, err := s.Connect(context.Background(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	scan := func(cells int) (map[string][]string, ledgerMove) {
		t.Helper()
		before := s.Accounting().Snapshot()
		got, err := conn.ScanColumns(context.Background(), "t", names, simdb.ScanOptions{Strategy: strategy, Rows: tc.m, Cells: cells, Seed: tc.scanSeed})
		if err != nil {
			t.Fatal(err)
		}
		return got, moved(before, s.Accounting().Snapshot())
	}
	returned := func(out map[string][]string) (cells, bytes int) {
		for _, vals := range out {
			cells += len(vals)
			for _, v := range vals {
				bytes += len(v)
			}
		}
		return cells, bytes
	}

	full, fullMove := scan(0)
	for _, name := range names {
		col := tb.Columns[slices.IndexFunc(tb.Columns, func(c *corpus.Column) bool { return c.Name == name })]
		want := make([]string, len(rowIdx))
		for i, r := range rowIdx {
			want[i] = col.Values[r]
		}
		if !slices.Equal(full[name], want) || len(full[name]) != window {
			t.Fatalf("%+v: Cells 0 scan of %s = %q, want the window %q", tc, name, full[name], want)
		}
	}
	_, fullBytes := returned(full)
	if want := (ledgerMove{1, len(names), window, window * len(names), fullBytes}); fullMove != want {
		t.Fatalf("%+v: Cells 0 scan moved the ledger %+v, want %+v", tc, fullMove, want)
	}

	cut, cutMove := scan(tc.n)
	for _, name := range names {
		want := full[name]
		if tc.n > 0 {
			want = visible(full[name], tc.n)
		}
		if !slices.Equal(cut[name], want) || (tc.n <= 0 && len(cut[name]) != window) {
			t.Fatalf("%+v: Cells %d scan of %s = %q, want %q", tc, tc.n, name, cut[name], want)
		}
	}
	if len(cut) != len(names) {
		t.Fatalf("%+v: %d columns returned, want %d", tc, len(cut), len(names))
	}
	cells, bytes := returned(cut)
	if want := (ledgerMove{1, len(names), window, cells, bytes}); cutMove != want {
		t.Fatalf("%+v: Cells %d scan moved the ledger %+v, want %+v", tc, tc.n, cutMove, want)
	}
	if tc.n <= 0 && cutMove != fullMove {
		t.Fatalf("%+v: Cells %d scan moved the ledger %+v, the Cells 0 scan %+v", tc, tc.n, cutMove, fullMove)
	}

	snapshot := make(map[string][]string, len(cut))
	for name, vals := range cut {
		snapshot[name] = slices.Clone(vals)
	}
	for _, vals := range cut {
		_ = append(vals, "appended")
	}
	for name, vals := range cut {
		if !slices.Equal(vals, snapshot[name]) {
			t.Fatalf("%+v: an append to another column changed %s to %q", tc, name, vals)
		}
	}
}

// TestScanCellsProperty draws tables with empty cells, both strategies, and
// random m, n and column lists (checkScanCells).
func TestScanCellsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		rows := rng.Intn(70)
		checkScanCells(t, scanCase{
			seed:     rng.Int63(),
			rows:     rows,
			cols:     1 + rng.Intn(5),
			m:        rng.Intn(rows+10) - 2,
			n:        rng.Intn(16) - 2,
			sample:   rng.Intn(2) == 1,
			scanSeed: rng.Int63(),
		})
	}
}

// FuzzScanCells is TestScanCellsProperty's check over fuzzed draws.
func FuzzScanCells(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(3), int8(50), int8(10), false, int64(0))
	f.Add(int64(2), uint8(60), uint8(5), int8(50), int8(10), true, int64(7))
	f.Add(int64(3), uint8(0), uint8(1), int8(5), int8(3), true, int64(1))
	f.Add(int64(4), uint8(20), uint8(2), int8(-1), int8(0), false, int64(0))
	f.Add(int64(5), uint8(20), uint8(4), int8(100), int8(-3), true, int64(9))
	f.Add(int64(6), uint8(9), uint8(2), int8(9), int8(40), false, int64(0))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, m, n int8, sample bool, scanSeed int64) {
		checkScanCells(t, scanCase{
			seed:     seed,
			rows:     int(rows) % 121,
			cols:     1 + int(cols)%6,
			m:        int(m),
			n:        int(n),
			sample:   sample,
			scanSeed: scanSeed,
		})
	})
}
