package simdb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/corpus"
)

func testServer(t *testing.T) (*Server, []*corpus.Table) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(20), 1)
	s := NewServer(NoLatency)
	s.LoadTables("userdb", ds.Test)
	return s, ds.Test
}

func TestConnectUnknownDatabase(t *testing.T) {
	s := NewServer(NoLatency)
	if _, err := s.Connect(context.Background(), "nope"); err == nil {
		t.Fatal("expected error for unknown database")
	}
}

func TestListTablesOrder(t *testing.T) {
	s, tables := testServer(t)
	conn, err := s.Connect(context.Background(), "userdb")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names, err := conn.ListTables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(tables) {
		t.Fatalf("got %d tables, want %d", len(names), len(tables))
	}
	for i, tb := range tables {
		if names[i] != tb.Name {
			t.Fatalf("table %d = %s, want %s (load order)", i, names[i], tb.Name)
		}
	}
}

func TestTableMetadataMatchesSource(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	tm, err := conn.TableMetadata(context.Background(), src.Name)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name != src.Name || tm.Comment != src.Comment || tm.RowCount != src.Rows() {
		t.Fatalf("metadata mismatch: %+v", tm)
	}
	if len(tm.Columns) != len(src.Columns) {
		t.Fatalf("got %d columns, want %d", len(tm.Columns), len(src.Columns))
	}
	for i, cm := range tm.Columns {
		sc := src.Columns[i]
		if cm.Name != sc.Name || cm.Comment != sc.Comment || cm.DataType != sc.SQLType {
			t.Fatalf("column %d mismatch: %+v vs %+v", i, cm, sc)
		}
		if cm.Stats != nil {
			t.Fatal("stats must be nil before ANALYZE")
		}
	}
}

func TestTableMetadataUnknownTable(t *testing.T) {
	s, _ := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	if _, err := conn.TableMetadata(context.Background(), "ghost"); err == nil {
		t.Fatal("expected error")
	}
}

// TestSchemaMetadataIsOneQuery: the schema read returns, in ListTables
// order, exactly what the per-table reads return, for the price of one
// query, one table_metadata observation and one fault decision — the
// up-front failure fires once, and a slow draw scales one round trip.
func TestSchemaMetadataIsOneQuery(t *testing.T) {
	const rtt, factor = 10 * time.Millisecond, 4
	s := faultTestServer(LatencyProfile{QueryRoundTrip: rtt, SamplingPenalty: 1})
	ctx := context.Background()
	conn := mustConnect(t, s)
	defer conn.Close()
	before, observed := s.Accounting().Snapshot().Queries, opSeconds["table_metadata"].Count()
	schema, err := conn.SchemaMetadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Accounting().Snapshot().Queries - before; got != 1 {
		t.Fatalf("schema of %d tables cost %d queries, want 1", len(schema), got)
	}
	if got := opSeconds["table_metadata"].Count() - observed; got != 1 {
		t.Fatalf("schema read observed %d table_metadata ops, want 1", got)
	}
	names, err := conn.ListTables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != len(names) || len(names) < 2 {
		t.Fatalf("got %d entries for %d tables", len(schema), len(names))
	}
	for i, name := range names {
		single, err := conn.TableMetadata(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(schema[i], single) {
			t.Fatalf("entry %d is %s, want the single-table read of %s (ListTables order)", i, schema[i].Name, name)
		}
	}

	// oneDecision fails unless the injector armed with seed has drawn exactly
	// one operation's values (three) since.
	oneDecision := func(seed int64) {
		t.Helper()
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			ref.Float64()
		}
		if s.faultProfile.rng.Float64() != ref.Float64() {
			t.Fatal("the schema read did not draw exactly one fault decision")
		}
	}
	s.SetFaultProfile(FaultProfile{Seed: 1, QueryFailProb: 1})
	faults := s.Accounting().Snapshot().Faults
	if _, err := conn.SchemaMetadata(ctx); !IsTransient(err) {
		t.Fatalf("SchemaMetadata: want transient, got %v", err)
	}
	if got := s.Accounting().Snapshot().Faults - faults; got != 1 {
		t.Fatalf("schema read fired %d faults, want 1", got)
	}
	oneDecision(1)

	s.SetFaultProfile(FaultProfile{Seed: 2, SlowQueryProb: 1, SlowQueryFactor: factor})
	start := time.Now()
	if _, err := conn.SchemaMetadata(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < factor*rtt {
		t.Fatalf("slow schema read took %v, want ≥ %v (one round trip × %d)", took, factor*rtt, factor)
	}
	oneDecision(2)
}

func TestScanFirstRows(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	col := src.Columns[0]
	got, err := conn.ScanColumns(context.Background(), src.Name, []string{col.Name}, ScanOptions{Strategy: FirstRows, Rows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[col.Name], col.Values[:5]) {
		t.Fatalf("scan = %v, want %v", got[col.Name], col.Values[:5])
	}
}

func TestScanAllRowsWhenMExceeds(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	got, err := conn.ScanColumns(context.Background(), src.Name, []string{src.Columns[0].Name}, ScanOptions{Rows: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[src.Columns[0].Name]) != src.Rows() {
		t.Fatalf("scan returned %d rows, want %d", len(got[src.Columns[0].Name]), src.Rows())
	}
}

func TestScanRandomSampleDeterministicAndSubset(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	col := src.Columns[0]
	opts := ScanOptions{Strategy: RandomSample, Rows: 10, Seed: 0}
	a, err := conn.ScanColumns(context.Background(), src.Name, []string{col.Name}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := conn.ScanColumns(context.Background(), src.Name, []string{col.Name}, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampling with the same seed must be deterministic")
	}
	// All sampled values must exist in the column.
	valid := make(map[string]int)
	for _, v := range col.Values {
		valid[v]++
	}
	for _, v := range a[col.Name] {
		if valid[v] == 0 {
			t.Fatalf("sampled value %q not in column", v)
		}
		valid[v]--
	}
}

func TestScanUnknownColumn(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	if _, err := conn.ScanColumns(context.Background(), tables[0].Name, []string{"ghost_col"}, ScanOptions{Rows: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestClosedConnectionRejectsOps(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err == nil {
		t.Fatal("double close should error")
	}
	if _, err := conn.ListTables(context.Background()); err == nil {
		t.Fatal("ops on closed connection should error")
	}
	if _, err := conn.TableMetadata(context.Background(), tables[0].Name); err == nil {
		t.Fatal("ops on closed connection should error")
	}
}

func TestAccountingTracksScans(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	cols := []string{src.Columns[0].Name, src.Columns[1].Name}
	if _, err := conn.ScanColumns(context.Background(), src.Name, cols, ScanOptions{Rows: 7}); err != nil {
		t.Fatal(err)
	}
	snap := s.Accounting().Snapshot()
	if snap.Connections != 1 {
		t.Fatalf("Connections = %d", snap.Connections)
	}
	if snap.ColumnsScanned != 2 || snap.DistinctColsScanned != 2 {
		t.Fatalf("ColumnsScanned = %d, Distinct = %d", snap.ColumnsScanned, snap.DistinctColsScanned)
	}
	if snap.RowsScanned != 7 {
		t.Fatalf("RowsScanned = %d", snap.RowsScanned)
	}
	if snap.CellsRead != 14 {
		t.Fatalf("CellsRead = %d", snap.CellsRead)
	}
	// Rescanning the same column doesn't grow the distinct set.
	conn.ScanColumns(context.Background(), src.Name, cols[:1], ScanOptions{Rows: 3})
	snap = s.Accounting().Snapshot()
	if snap.DistinctColsScanned != 2 {
		t.Fatalf("DistinctColsScanned = %d after rescan", snap.DistinctColsScanned)
	}
	s.Accounting().Reset()
	if s.Accounting().Snapshot() != (AccountingSnapshot{}) {
		t.Fatal("Reset should zero all counters")
	}
}

func TestMetadataQueriesDoNotCountAsScans(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	conn.ListTables(context.Background())
	conn.TableMetadata(context.Background(), tables[0].Name)
	snap := s.Accounting().Snapshot()
	if snap.ColumnsScanned != 0 || snap.RowsScanned != 0 {
		t.Fatalf("metadata queries must not scan: %+v", snap)
	}
	if snap.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", snap.Queries)
	}
}

func TestAnalyzeTablePopulatesStats(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	before := s.Accounting().Snapshot().Queries
	analyzed, err := conn.AnalyzeTable(context.Background(), src.Name, AnalyzeOptions{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Accounting().Snapshot().Queries - before; got != 1 {
		t.Fatalf("ANALYZE cost %d queries, want 1", got)
	}
	// ANALYZE replies with what it computed: the same view a follow-up
	// metadata query returns.
	tm, _ := conn.TableMetadata(context.Background(), src.Name)
	if !reflect.DeepEqual(analyzed, tm) {
		t.Fatal("AnalyzeTable's reply differs from the metadata query that follows it")
	}
	for i, cm := range tm.Columns {
		if cm.Stats == nil {
			t.Fatalf("column %d has no stats after ANALYZE", i)
		}
		st := cm.Stats
		if st.RowCount != src.Rows() {
			t.Fatalf("RowCount = %d", st.RowCount)
		}
		if st.NDV <= 0 || st.NDV > st.RowCount {
			t.Fatalf("NDV = %d out of range", st.NDV)
		}
		if st.Histogram == nil || len(st.Histogram.Buckets) == 0 {
			t.Fatal("missing histogram")
		}
		total := 0
		for _, b := range st.Histogram.Buckets {
			total += b.Count
		}
		if total != st.RowCount-st.NullCount {
			t.Fatalf("histogram counts %d != non-null rows %d", total, st.RowCount-st.NullCount)
		}
	}
	// ANALYZE must not count as a column scan.
	if snap := s.Accounting().Snapshot(); snap.ColumnsScanned != 0 {
		t.Fatalf("ANALYZE counted as scan: %+v", snap)
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	s, _ := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	if _, err := conn.AnalyzeTable(context.Background(), "ghost", AnalyzeOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestComputeStatsNumericColumn(t *testing.T) {
	st := computeStats([]string{"1", "2", "3", "4", "5", "6", "7", "8"}, 4)
	if st.NumericRatio != 1 {
		t.Fatalf("NumericRatio = %v", st.NumericRatio)
	}
	if st.Histogram.Kind != EqualWidth {
		t.Fatalf("numeric column should get equal-width histogram, got %v", st.Histogram.Kind)
	}
	if st.NumericMin != 1 || st.NumericMax != 8 {
		t.Fatalf("min/max = %v/%v", st.NumericMin, st.NumericMax)
	}
}

func TestComputeStatsTextColumn(t *testing.T) {
	st := computeStats([]string{"apple", "banana", "apple", "", "cherry"}, 2)
	if st.NullCount != 1 || st.NDV != 3 {
		t.Fatalf("NullCount=%d NDV=%d", st.NullCount, st.NDV)
	}
	if st.Histogram.Kind != EqualHeight {
		t.Fatalf("text column should get equal-height histogram, got %v", st.Histogram.Kind)
	}
	if st.MinLen != 5 || st.MaxLen != 6 {
		t.Fatalf("MinLen/MaxLen = %d/%d", st.MinLen, st.MaxLen)
	}
}

func TestComputeStatsAllNull(t *testing.T) {
	st := computeStats([]string{"", "", ""}, 4)
	if st.NullCount != 3 || st.NDV != 0 || st.MinLen != 0 {
		t.Fatalf("all-null stats = %+v", st)
	}
}

func TestEqualWidthSingleValue(t *testing.T) {
	h := equalWidthHistogram([]float64{5, 5, 5}, 4)
	if len(h.Buckets) != 1 || h.Buckets[0].Count != 3 {
		t.Fatalf("constant column histogram = %+v", h)
	}
}

func TestEqualHeightFewerValuesThanBuckets(t *testing.T) {
	h := equalHeightHistogram([]string{"a", "b"}, 8)
	if len(h.Buckets) != 2 {
		t.Fatalf("bucket count = %d, want 2", len(h.Buckets))
	}
}

func TestHistogramKindString(t *testing.T) {
	if EqualHeight.String() != "equal-height" || EqualWidth.String() != "equal-width" {
		t.Fatal("String() mismatch")
	}
	if !strings.Contains(HistogramKind(9).String(), "9") {
		t.Fatal("unknown kind should render its value")
	}
}

func TestLatencyInjectsDelay(t *testing.T) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(2), 2)
	lat := LatencyProfile{ConnectionSetup: 5 * time.Millisecond, QueryRoundTrip: time.Millisecond, SamplingPenalty: 1}
	s := NewServer(lat)
	s.LoadTables("db", ds.Test)
	start := time.Now()
	conn, err := s.Connect(context.Background(), "db")
	if err != nil {
		t.Fatal(err)
	}
	conn.ListTables(context.Background())
	elapsed := time.Since(start)
	if elapsed < 6*time.Millisecond {
		t.Fatalf("latency not injected: %v", elapsed)
	}
	conn.Close()
}

func TestPaperLatencyScales(t *testing.T) {
	full := PaperLatency(1)
	half := PaperLatency(0.5)
	if half.QueryRoundTrip*2 != full.QueryRoundTrip {
		t.Fatalf("scaling broken: %v vs %v", half.QueryRoundTrip, full.QueryRoundTrip)
	}
	if full.SamplingPenalty <= 1 {
		t.Fatal("sampling must be slower than sequential scan")
	}
}

func TestConcurrentScansSafe(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			tb := tables[i%len(tables)]
			_, err := conn.ScanColumns(context.Background(), tb.Name, []string{tb.Columns[0].Name}, ScanOptions{Rows: 5})
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Property: for any sample size and seed, RandomSample returns exactly
// min(m, rows) values and never panics.
func TestRandomSampleSizeProperty(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	col := src.Columns[0].Name
	f := func(m uint8, seed int64) bool {
		rows := int(m%80) + 1
		got, err := conn.ScanColumns(context.Background(), src.Name, []string{col}, ScanOptions{Strategy: RandomSample, Rows: rows, Seed: seed})
		if err != nil {
			return false
		}
		want := rows
		if want > src.Rows() {
			want = src.Rows()
		}
		return len(got[col]) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectScanFaultOneShot(t *testing.T) {
	s, tables := testServer(t)
	conn, _ := s.Connect(context.Background(), "userdb")
	defer conn.Close()
	src := tables[0]
	wantErr := fmt.Errorf("connection reset by peer")
	s.InjectScanFault(src.Name, wantErr)
	if _, err := conn.ScanColumns(context.Background(), src.Name, []string{src.Columns[0].Name}, ScanOptions{Rows: 3}); err == nil {
		t.Fatal("armed fault should fire")
	}
	// One-shot: the next scan succeeds.
	if _, err := conn.ScanColumns(context.Background(), src.Name, []string{src.Columns[0].Name}, ScanOptions{Rows: 3}); err != nil {
		t.Fatalf("fault should be consumed: %v", err)
	}
	// Other tables are unaffected.
	other := tables[1]
	s.InjectScanFault(src.Name, wantErr)
	if _, err := conn.ScanColumns(context.Background(), other.Name, []string{other.Columns[0].Name}, ScanOptions{Rows: 3}); err != nil {
		t.Fatalf("unrelated table failed: %v", err)
	}
}
