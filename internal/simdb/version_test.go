package simdb

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/corpus"
)

// TestVersionMovesOnEveryPublish: every published state of a table has a
// version of its own. Two servers loaded with the same tables (the same
// database and table names and rows) never share one; ANALYZE and WriteCell
// each publish a new one; reads in between return the same view. A write
// keeps the rows (Equal) and the statistics, and a scan reads the new cell.
func TestVersionMovesOnEveryPublish(t *testing.T) {
	ctx := context.Background()
	s1, tables := testServer(t)
	s2 := NewServer(NoLatency)
	s2.LoadTables("userdb", tables)
	src := tables[0]
	read := func(s *Server) *TableMeta {
		t.Helper()
		conn, err := s.Connect(ctx, "userdb")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		metas, err := conn.SchemaMetadata(ctx, src.Name)
		if err != nil {
			t.Fatal(err)
		}
		return metas[0]
	}
	a, b := read(s1), read(s2)
	if a.Version == 0 || a.Version == b.Version || !a.Equal(b) {
		t.Fatalf("two servers of the same tables: versions %d and %d, equal rows %v; want distinct versions of equal rows", a.Version, b.Version, a.Equal(b))
	}
	if again := read(s1); again != a {
		t.Fatal("an unchanged table's view changed between reads")
	}

	conn, err := s1.Connect(ctx, "userdb")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	analyzed, err := conn.AnalyzeTable(ctx, src.Name, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if analyzed.Version <= a.Version || read(s1) != analyzed || analyzed.Equal(a) {
		t.Fatalf("ANALYZE: version %d after %d; it must publish new rows under a new version", analyzed.Version, a.Version)
	}

	col := src.Columns[0].Name
	if err := s1.WriteCell("userdb", src.Name, col, 0, "written"); err != nil {
		t.Fatal(err)
	}
	written := read(s1)
	if written.Version <= analyzed.Version || !written.Equal(analyzed) {
		t.Fatalf("WriteCell: version %d after %d, rows equal %v; want a new version of the same rows", written.Version, analyzed.Version, written.Equal(analyzed))
	}
	got, err := conn.ScanColumns(ctx, src.Name, []string{col}, ScanOptions{Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[col][0] != "written" || src.Columns[0].Values[0] == "written" {
		t.Fatalf("scan after WriteCell read %q; the source table must stay unchanged", got[col][0])
	}
	if b := read(s2); b.Version == written.Version {
		t.Fatal("a write on one server moved another server's table")
	}

	for _, bad := range []struct{ db, table, col string }{
		{"nope", src.Name, col}, {"userdb", "nope", col}, {"userdb", src.Name, "nope"},
	} {
		if err := s1.WriteCell(bad.db, bad.table, bad.col, 0, "x"); err == nil {
			t.Fatalf("WriteCell(%q, %q, %q) succeeded", bad.db, bad.table, bad.col)
		}
	}
	for _, row := range []int{-1, src.Rows()} {
		if err := s1.WriteCell("userdb", src.Name, col, row, "x"); err == nil {
			t.Fatalf("WriteCell at row %d of %d succeeded", row, src.Rows())
		}
	}
}

// TestWriteCellUnderConcurrentReads: writes race schema reads and scans
// (run it under -race). A reader that saw a version sees at least the cell
// written before that version was published: row 0 counts the writes, and a
// scan after a read of version v never returns a count below the one v
// published.
func TestWriteCellUnderConcurrentReads(t *testing.T) {
	ctx := context.Background()
	s := NewServer(NoLatency)
	tb := &corpus.Table{Name: "t", Columns: []*corpus.Column{{Name: "c", Values: []string{"0", "x"}}}}
	s.LoadTables("db", []*corpus.Table{tb})
	version := func(conn *Conn) uint64 {
		metas, err := conn.SchemaMetadata(ctx)
		if err != nil {
			panic(err)
		}
		return metas[0].Version
	}
	wconn, err := s.Connect(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer wconn.Close()
	const writes = 200
	published := map[uint64]int{version(wconn): 0} // version → the count it published
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			if err := s.WriteCell("db", "t", "c", 0, strconv.Itoa(i)); err != nil {
				panic(err)
			}
			published[version(wconn)] = i // the one writer: this is write i's version
		}
	}()
	conn, err := s.Connect(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	type read struct {
		version uint64
		count   int
	}
	var reads []read
	for range writes {
		v := version(conn)
		got, err := conn.ScanColumns(ctx, "t", []string{"c"}, ScanOptions{Rows: 1})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.Atoi(got["c"][0])
		reads = append(reads, read{v, n})
	}
	wg.Wait()
	for _, r := range reads {
		if want, ok := published[r.version]; !ok || r.count < want {
			t.Fatalf("a scan after reading version %d saw count %d; that version published %d (known: %v)", r.version, r.count, want, ok)
		}
	}
	if tb.Columns[0].Values[0] != "0" {
		t.Fatal("writes reached the loaded corpus table")
	}
}

// TestTableMetaEqualComparesEveryRow: Equal holds for a copy and fails on
// any changed row field, statistic or histogram bucket; floats compare by
// their bits, so -0 differs from +0 and a NaN equals itself.
func TestTableMetaEqualComparesEveryRow(t *testing.T) {
	stats := func() *ColumnStats {
		return &ColumnStats{RowCount: 4, NDV: 3, AvgLen: 2.5, NumericMax: math.NaN(),
			Histogram: &Histogram{Kind: EqualHeight, Buckets: []Bucket{{"a", "b", 2}, {"c", "d", 2}}}}
	}
	build := func() *TableMeta {
		return &TableMeta{Name: "t", Comment: "c", RowCount: 4, Version: 1, Columns: []ColumnMeta{
			{Name: "a", Comment: "x", DataType: "text", Stats: stats()},
			{Name: "b", DataType: "int"},
		}}
	}
	base := build()
	same := build()
	same.Version = 2
	if !base.Equal(same) {
		t.Fatal("a copy under another version is not Equal")
	}
	for name, edit := range map[string]func(*TableMeta){
		"name":         func(m *TableMeta) { m.Name = "u" },
		"comment":      func(m *TableMeta) { m.Comment = "" },
		"rows":         func(m *TableMeta) { m.RowCount++ },
		"columns":      func(m *TableMeta) { m.Columns = m.Columns[:1] },
		"column name":  func(m *TableMeta) { m.Columns[1].Name = "z" },
		"column type":  func(m *TableMeta) { m.Columns[1].DataType = "text" },
		"stats added":  func(m *TableMeta) { m.Columns[1].Stats = stats() },
		"stats gone":   func(m *TableMeta) { m.Columns[0].Stats = nil },
		"ndv":          func(m *TableMeta) { m.Columns[0].Stats.NDV++ },
		"signed zero":  func(m *TableMeta) { m.Columns[0].Stats.NumericMin = math.Copysign(0, -1) },
		"histogram":    func(m *TableMeta) { m.Columns[0].Stats.Histogram = nil },
		"bucket count": func(m *TableMeta) { m.Columns[0].Stats.Histogram.Buckets[1].Count++ },
		"bucket bound": func(m *TableMeta) { m.Columns[0].Stats.Histogram.Buckets[0].Upper = "bb" },
		"kind":         func(m *TableMeta) { m.Columns[0].Stats.Histogram.Kind = EqualWidth },
	} {
		changed := build()
		edit(changed)
		if base.Equal(changed) || changed.Equal(base) {
			t.Errorf("%s: a changed row is Equal", name)
		}
	}
}
