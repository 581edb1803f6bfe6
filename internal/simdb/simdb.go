// Package simdb simulates the remote user database of the paper's cloud
// deployment (an RDS-for-MySQL instance reachable over a VPC). It provides:
//
//   - an embedded relational store loaded from generated corpus tables,
//   - an information_schema-style metadata API (table/column names,
//     comments, data types, row counts) that is cheap to query,
//   - ANALYZE TABLE statistics and histograms (equal-height/equal-width),
//   - column-content scans with both "first m rows" and "random sampling of
//     m rows" strategies (§6.1.2), optionally cut in the database to each
//     column's first n non-empty values among those rows,
//   - a configurable latency model injecting real delays for connection
//     setup, query round trips, and per cell returned,
//   - deterministic, seedable fault injection (transient errors, slow
//     queries, mid-scan connection drops — see FaultProfile), and
//   - an accounting ledger tracking connections, queries, scanned columns,
//     rows, bytes, faults and client retries — the raw material for the
//     "ratio of scanned columns" intrusiveness metric (§6.2).
//
// Every data-path method takes a context.Context: injected latency sleeps
// are interruptible, so a cancelled request stops paying simulated I/O.
// All methods are safe for concurrent use; the pipelined executor issues
// scans from multiple data-preparation workers at once.
package simdb

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
)

// LatencyProfile models the time cost of talking to a remote database. All
// costs are injected as real sleeps so that pipelined execution genuinely
// overlaps I/O waits with inference compute.
type LatencyProfile struct {
	// ConnectionSetup is paid once per Connect.
	ConnectionSetup time.Duration
	// ConnectionClose is paid once per Close.
	ConnectionClose time.Duration
	// QueryRoundTrip is paid once per metadata query, scan, or ANALYZE.
	QueryRoundTrip time.Duration
	// PerCell is paid per cell returned by a content scan, so scanning
	// fewer columns, or fewer cells of each, genuinely costs less.
	PerCell time.Duration
	// SamplingPenalty multiplies PerCell for random-sampling scans, which
	// are slower than sequential first-m scans in MySQL (§6.3).
	SamplingPenalty float64
}

// PaperLatency returns the latency profile of the paper's testbed (5 ms
// network delay between ECS and RDS) scaled by the given factor. scale=1 is
// paper-realistic; the experiments default to a small scale so that full
// sweeps finish quickly while preserving every relative relationship.
func PaperLatency(scale float64) LatencyProfile {
	ms := func(d float64) time.Duration { return time.Duration(d * scale * float64(time.Millisecond)) }
	return LatencyProfile{
		ConnectionSetup: ms(10),
		ConnectionClose: ms(2),
		QueryRoundTrip:  ms(5),
		PerCell:         ms(0.02),
		SamplingPenalty: 1.3,
	}
}

// NoLatency disables all injected delays; used by unit tests.
var NoLatency = LatencyProfile{SamplingPenalty: 1}

// sleep pays d of simulated I/O, returning early with the context's error
// if the request is cancelled mid-wait. A cancelled context also aborts
// zero-length sleeps, so even NoLatency servers observe deadlines.
func (l LatencyProfile) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Accounting tracks the load a detection service places on a database.
type Accounting struct {
	mu             sync.Mutex
	Connections    int
	Queries        int
	ColumnsScanned int
	RowsScanned    int
	CellsRead      int
	BytesRead      int
	Faults         int // server-side injected faults that fired
	Retries        int // client-reported retry attempts (AddRetry)
	// scannedCols holds every column a scan has read, by its stored column,
	// which is one column of one table of one database: database "a.b",
	// table "c", column "d" and database "a", table "b.c", column "d" are
	// two, however their names would join.
	scannedCols map[*storedColumn]struct{}
}

// Snapshot returns a copy of the current counters.
func (a *Accounting) Snapshot() AccountingSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccountingSnapshot{
		Connections:         a.Connections,
		Queries:             a.Queries,
		ColumnsScanned:      a.ColumnsScanned,
		DistinctColsScanned: len(a.scannedCols),
		RowsScanned:         a.RowsScanned,
		CellsRead:           a.CellsRead,
		BytesRead:           a.BytesRead,
		Faults:              a.Faults,
		Retries:             a.Retries,
	}
}

// AccountingSnapshot is an immutable view of the counters.
type AccountingSnapshot struct {
	Connections         int
	Queries             int
	ColumnsScanned      int
	DistinctColsScanned int
	RowsScanned         int
	CellsRead           int
	BytesRead           int
	Faults              int
	Retries             int
}

func (a *Accounting) addConn() {
	a.mu.Lock()
	a.Connections++
	a.mu.Unlock()
}

func (a *Accounting) addQuery() {
	a.mu.Lock()
	a.Queries++
	a.mu.Unlock()
}

func (a *Accounting) addFault() {
	a.mu.Lock()
	a.Faults++
	a.mu.Unlock()
	faultsTotal.Inc()
}

// AddRetry records a client-side retry against this database, so the ledger
// reflects the extra load retries place on the server.
func (a *Accounting) AddRetry() {
	a.mu.Lock()
	a.Retries++
	a.mu.Unlock()
	retriesTotal.Inc()
}

func (a *Accounting) addScan(cols []*storedColumn, rows, cells, bytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.Queries++
	a.ColumnsScanned += len(cols)
	a.RowsScanned += rows
	a.CellsRead += cells
	a.BytesRead += bytes
	if a.scannedCols == nil {
		a.scannedCols = make(map[*storedColumn]struct{})
	}
	for _, c := range cols {
		a.scannedCols[c] = struct{}{}
	}
}

// Server hosts simulated databases.
type Server struct {
	mu        sync.RWMutex
	databases map[string]*database
	latency   LatencyProfile
	acct      Accounting

	faultMu      sync.Mutex
	faults       map[string]error // table name → error returned by the next scan
	faultProfile *faultState      // nil = no probabilistic fault injection
}

type database struct {
	name   string
	order  []string
	tables map[string]*storedTable
}

type storedTable struct {
	name    string
	comment string
	columns []*storedColumn
	// byName indexes columns by name, built once by LoadTables for
	// ScanColumns.
	byName map[string]*storedColumn
	rows   int
	// view is the table's information_schema view, statistics included once
	// ANALYZE has run. Readers share it; ANALYZE replaces it, never writes it.
	view atomic.Pointer[TableMeta]
}

type storedColumn struct {
	name    string
	comment string
	sqlType string
	// values is the column's content, replaced whole by WriteCell (copy on
	// write), so a scan reads one consistent state without a lock.
	values atomic.Pointer[[]string]
}

// cells returns the column's content; it must not be modified.
func (c *storedColumn) cells() []string { return *c.values.Load() }

// NewServer creates an empty server with the given latency profile.
func NewServer(latency LatencyProfile) *Server {
	return &Server{databases: make(map[string]*database), latency: latency}
}

// Accounting returns the server's accounting ledger.
func (s *Server) Accounting() *Accounting { return &s.acct }

// InjectScanFault arms a one-shot failure: the next ScanColumns against the
// named table returns err. Used to exercise the detection service's
// partial-failure handling (a flaky table must not abort a batch). Wrap err
// with Transient to make the failure retryable.
func (s *Server) InjectScanFault(table string, err error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.faults == nil {
		s.faults = make(map[string]error)
	}
	s.faults[table] = err
}

// takeFault consumes an armed fault for the table, if any.
func (s *Server) takeFault(table string) error {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	err, ok := s.faults[table]
	if !ok {
		return nil
	}
	delete(s.faults, table)
	s.acct.addFault()
	return err
}

// LoadTables creates (or extends) a database with the given corpus tables.
// Ground-truth labels are deliberately not stored: the database knows only
// what a real user database would (schema, comments, content).
func (s *Server) LoadTables(dbName string, tables []*corpus.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.databases[dbName]
	if db == nil {
		db = &database{name: dbName, tables: make(map[string]*storedTable)}
		s.databases[dbName] = db
	}
	for _, t := range tables {
		st := &storedTable{name: t.Name, comment: t.Comment, rows: t.Rows(), byName: make(map[string]*storedColumn, len(t.Columns))}
		for _, c := range t.Columns {
			col := &storedColumn{
				name:    c.Name,
				comment: c.Comment,
				sqlType: c.SQLType,
			}
			col.values.Store(&c.Values)
			st.columns = append(st.columns, col)
			st.byName[c.Name] = col
		}
		st.publish(nil)
		if _, dup := db.tables[t.Name]; dup {
			panic(fmt.Sprintf("simdb: duplicate table %s.%s", dbName, t.Name))
		}
		db.tables[t.Name] = st
		db.order = append(db.order, t.Name)
	}
}

// Connect opens a connection to the named database, paying the setup cost.
// With a fault profile armed, the attempt may fail transiently after the
// setup latency — exactly when a real TCP/TLS handshake times out.
func (s *Server) Connect(ctx context.Context, dbName string) (_ *Conn, err error) {
	start := time.Now()
	defer func() { observeOp("connect", start, err) }()
	d := s.decide(opConnect, dbName, "")
	if err := s.latency.sleep(ctx, scaleDur(s.latency.ConnectionSetup, d.slowFactor)); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	s.mu.RLock()
	db := s.databases[dbName]
	s.mu.RUnlock()
	if db == nil {
		return nil, fmt.Errorf("simdb: unknown database %q", dbName)
	}
	s.acct.addConn()
	return &Conn{server: s, db: db}, nil
}

// scaleDur multiplies a latency cost by a slow-query factor.
func scaleDur(d time.Duration, factor float64) time.Duration {
	if factor == 1 || factor <= 0 {
		return d
	}
	return time.Duration(float64(d) * factor)
}

// Conn is a client connection. A Conn may be shared by multiple goroutines,
// mirroring a pooled connection; closing it twice is an error.
type Conn struct {
	server *Server
	db     *database
	mu     sync.Mutex
	closed bool
}

// Accounting returns the ledger of the server this connection talks to, so
// clients can report retries against the right database.
func (c *Conn) Accounting() *Accounting { return &c.server.acct }

// Close releases the connection. The close handshake is fire-and-forget, so
// it does not take a context.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("simdb: connection already closed")
	}
	c.closed = true
	_ = c.server.latency.sleep(context.Background(), c.server.latency.ConnectionClose)
	return nil
}

func (c *Conn) check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("simdb: connection is closed")
	}
	return nil
}

// ListTables returns the table names in load order (one metadata query).
func (c *Conn) ListTables(ctx context.Context) (_ []string, err error) {
	start := time.Now()
	defer func() { observeOp("list_tables", start, err) }()
	if err := c.check(); err != nil {
		return nil, err
	}
	d := c.server.decide(opQuery, c.db.name, "")
	if err := c.server.latency.sleep(ctx, scaleDur(c.server.latency.QueryRoundTrip, d.slowFactor)); err != nil {
		return nil, err
	}
	c.server.acct.addQuery()
	if d.err != nil {
		return nil, d.err
	}
	return append([]string(nil), c.db.order...), nil
}

// ColumnMeta is the information_schema view of one column.
type ColumnMeta struct {
	Name     string
	Comment  string
	DataType string
	// Stats is non-nil only after ANALYZE TABLE has run.
	Stats *ColumnStats
}

// TableMeta is the information_schema view of one table. A TableMeta the
// database returns is shared by every reader of the table until ANALYZE or
// a write replaces it, and must not be modified.
type TableMeta struct {
	Name     string
	Comment  string
	RowCount int
	Columns  []ColumnMeta
	// Version is the table's change marker, simdb's stand-in for MySQL's
	// information_schema.TABLES.UPDATE_TIME, read in the same round trip.
	// Every publish of the table's state (LoadTables, AnalyzeTable,
	// WriteCell) draws a fresh one from one process-wide counter, so no two
	// states of any table on any Server share a version: equal versions mean
	// the same rows and the same content. UPDATE_TIME is weaker, and an
	// adapter for a real MySQL keys what it remembers by (server, schema,
	// table) as well: its one-second resolution repeats, so a value equal to
	// the current second counts as changed, and it is NULL on engines that
	// keep none, where nothing may be remembered at all.
	Version uint64
}

// Equal reports whether tm and o hold the same information_schema rows:
// names, comments, declared types, row count and statistics, every float
// compared by its bits. Version is the marker, not a row, and is not
// compared.
func (tm *TableMeta) Equal(o *TableMeta) bool {
	if tm.Name != o.Name || tm.Comment != o.Comment || tm.RowCount != o.RowCount || len(tm.Columns) != len(o.Columns) {
		return false
	}
	for i := range tm.Columns {
		a, b := &tm.Columns[i], &o.Columns[i]
		if a.Name != b.Name || a.Comment != b.Comment || a.DataType != b.DataType || !a.Stats.equal(b.Stats) {
			return false
		}
	}
	return true
}

// TableMetadata fetches schema metadata for a table — the SELECT * FROM
// information_schema.columns of §3.2. It costs one query round trip and
// never touches column content.
func (c *Conn) TableMetadata(ctx context.Context, table string) (_ *TableMeta, err error) {
	start := time.Now()
	defer func() { observeOp("table_metadata", start, err) }()
	if err := c.metadataQuery(ctx, table); err != nil {
		return nil, err
	}
	st, ok := c.db.tables[table]
	if !ok {
		return nil, fmt.Errorf("simdb: unknown table %s.%s", c.db.name, table)
	}
	return st.view.Load(), nil
}

// SchemaMetadata fetches information_schema rows in one query round trip —
// the SELECT … FROM information_schema.columns WHERE table_schema = ? of
// §3.2. With no names it returns every table of the database in load order
// (the ListTables order); with names it adds AND table_name IN (…): the named
// tables in request order, each once, an unknown name simply absent. Either
// way it is charged exactly like one TableMetadata (the rows are free there
// too): one round trip, one ledger query, one fault decision, one
// table_metadata observation.
func (c *Conn) SchemaMetadata(ctx context.Context, tables ...string) ([]*TableMeta, error) {
	return c.AppendSchemaMetadata(ctx, nil, tables...)
}

// AppendSchemaMetadata is SchemaMetadata appending the tables' views to dst,
// for a caller that reuses one slice across reads.
func (c *Conn) AppendSchemaMetadata(ctx context.Context, dst []*TableMeta, tables ...string) (_ []*TableMeta, err error) {
	start := time.Now()
	defer func() { observeOp("table_metadata", start, err) }()
	names, detail := c.db.order, "*"
	if len(tables) > 0 {
		names, detail = tables, strings.Join(tables, ",")
	}
	if err := c.metadataQuery(ctx, detail); err != nil {
		return dst, err
	}
	for i, table := range names {
		if st, ok := c.db.tables[table]; ok && (len(tables) == 0 || !slices.Contains(names[:i], table)) {
			dst = append(dst, st.view.Load())
		}
	}
	return dst, nil
}

// metadataQuery pays for one information_schema query over the named table
// ("*" for the whole schema): connection check, fault decision, round trip,
// ledger entry.
func (c *Conn) metadataQuery(ctx context.Context, detail string) error {
	if err := c.check(); err != nil {
		return err
	}
	d := c.server.decide(opQuery, c.db.name, detail)
	if err := c.server.latency.sleep(ctx, scaleDur(c.server.latency.QueryRoundTrip, d.slowFactor)); err != nil {
		return err
	}
	c.server.acct.addQuery()
	return d.err
}

// versions numbers every published table state of the process
// (TableMeta.Version).
var versions atomic.Uint64

// publish installs a fresh information_schema view of the table, under a
// fresh Version, with stats[i] as column i's statistics (none when stats is
// nil) and returns it.
func (st *storedTable) publish(stats []*ColumnStats) *TableMeta {
	tm := &TableMeta{Name: st.name, Comment: st.comment, RowCount: st.rows, Columns: make([]ColumnMeta, len(st.columns)), Version: versions.Add(1)}
	for i, col := range st.columns {
		tm.Columns[i] = ColumnMeta{Name: col.name, Comment: col.comment, DataType: col.sqlType}
		if stats != nil {
			tm.Columns[i].Stats = stats[i]
		}
	}
	st.view.Store(tm)
	return tm
}

// WriteCell sets one cell, row of column in dbName.table, as another
// client's UPDATE would, and publishes the table's view anew under a fresh
// Version; the statistics stay what the last ANALYZE computed, as MySQL's
// do. It stands for writes the detection service does not make, so it pays
// no latency and is not in the ledger. It is safe alongside every read: a
// reader that sees the new Version sees the new cell.
func (s *Server) WriteCell(dbName, table, column string, row int, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.databases[dbName]
	if db == nil {
		return fmt.Errorf("simdb: unknown database %q", dbName)
	}
	st, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("simdb: unknown table %s.%s", dbName, table)
	}
	col, ok := st.byName[column]
	if !ok {
		return fmt.Errorf("simdb: unknown column %s.%s.%s", dbName, table, column)
	}
	if row < 0 || row >= st.rows {
		return fmt.Errorf("simdb: row %d out of range for %s.%s (%d rows)", row, dbName, table, st.rows)
	}
	values := slices.Clone(col.cells())
	values[row] = value
	col.values.Store(&values)
	old := st.view.Load()
	stats := make([]*ColumnStats, len(old.Columns))
	for i := range old.Columns {
		stats[i] = old.Columns[i].Stats
	}
	st.publish(stats)
	return nil
}

// ScanStrategy selects how content scans pick rows (§6.1.2).
type ScanStrategy int

const (
	// FirstRows reads the first m rows of the table.
	FirstRows ScanStrategy = iota
	// RandomSample reads a uniform random sample of m rows (MySQL
	// ORDER BY RAND(seed) LIMIT m), which is slower than FirstRows.
	RandomSample
)

// ScanOptions configures a content scan.
type ScanOptions struct {
	Strategy ScanStrategy
	// Rows is the number of rows to retrieve (m in the paper; ≤0 means all).
	Rows int
	// Cells, when > 0, is n: of the Rows rows picked, each column returns
	// only its first Cells non-empty values, in row order — the cells a
	// content model reads (§6.1.2). In MySQL it is one UNION ALL of
	// per-column SELECT c … WHERE c <> '' LIMIT n over the m-row window, in
	// one round trip. ≤0 returns every picked row of every column.
	Cells int
	// Seed seeds the RandomSample strategy.
	Seed int64
}

// ScanColumns retrieves content for the named columns of a table. The
// result maps column name → cell values in row order: every one of the m
// rows picked, or with opts.Cells > 0 each column's first Cells non-empty
// values among them. The call pays one query round trip plus PerCell per
// cell returned, and is recorded in the accounting ledger as an intrusive
// operation: one query, the columns, the m-row window in RowsScanned and the
// cells and bytes returned. Under an armed FaultProfile the scan may fail
// transiently up front, or drop mid-transfer after paying part of the
// per-cell latency.
func (c *Conn) ScanColumns(ctx context.Context, table string, cols []string, opts ScanOptions) (map[string][]string, error) {
	dst := make([][]string, len(cols))
	if _, err := c.ScanCells(ctx, table, cols, opts, dst, nil); err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(cols))
	for i, name := range cols {
		out[name] = dst[i]
	}
	return out, nil
}

// ScanCells is ScanColumns into the caller's storage: column cols[i]'s cells
// land in dst[i] (len(dst) ≥ len(cols)), all of them carved from one backing
// array, cells when it is large enough, and each capped so an append by the
// caller cannot run into the next column. It returns the backing array, for
// a caller that reuses it on its next scan once it is done with these cells.
func (c *Conn) ScanCells(ctx context.Context, table string, cols []string, opts ScanOptions, dst [][]string, cells []string) (_ []string, err error) {
	start := time.Now()
	defer func() { observeOp("scan", start, err) }()
	if err := c.check(); err != nil {
		return cells, err
	}
	if err := c.server.takeFault(table); err != nil {
		return cells, err
	}
	d := c.server.decide(opScan, c.db.name, table)
	lat := c.server.latency
	if d.err != nil && !d.midScan {
		// Up-front failure: the round trip is paid, nothing is transferred.
		if err := lat.sleep(ctx, scaleDur(lat.QueryRoundTrip, d.slowFactor)); err != nil {
			return cells, err
		}
		c.server.acct.addQuery()
		return cells, d.err
	}
	st, ok := c.db.tables[table]
	if !ok {
		return cells, fmt.Errorf("simdb: unknown table %s.%s", c.db.name, table)
	}
	var stack [32]*storedColumn
	selected := stack[:0]
	for _, name := range cols {
		col, ok := st.byName[name]
		if !ok {
			return cells, fmt.Errorf("simdb: unknown column %s.%s.%s", c.db.name, table, name)
		}
		selected = append(selected, col)
	}

	m := opts.Rows
	if m <= 0 || m > st.rows {
		m = st.rows
	}
	// rowIdx lists a sample's rows; nil means the first m.
	var rowIdx []int
	switch opts.Strategy {
	case FirstRows:
	case RandomSample:
		rowIdx = rand.New(rand.NewSource(opts.Seed)).Perm(st.rows)[:m]
		sort.Ints(rowIdx)
	default:
		return cells, fmt.Errorf("simdb: unknown scan strategy %d", opts.Strategy)
	}
	// per is the most cells one column returns.
	per := m
	if opts.Cells > 0 {
		per = min(opts.Cells, m)
	}

	nCells, bytes := 0, 0
	if need := per * len(selected); cap(cells) < need {
		cells = make([]string, need)
	}
	for i, col := range selected {
		vals := cells[i*per : i*per : (i+1)*per]
		values := col.cells()
		for j := 0; j < m && len(vals) < per; j++ {
			r := j
			if rowIdx != nil {
				r = rowIdx[j]
			}
			if v := values[r]; v != "" || opts.Cells <= 0 {
				vals = append(vals, v)
				bytes += len(v)
			}
		}
		nCells += len(vals)
		dst[i] = vals
	}

	// Latency: one round trip plus per-cell transfer (sampling pays the
	// MySQL RAND() penalty).
	perCell := lat.PerCell
	if opts.Strategy == RandomSample && lat.SamplingPenalty > 0 {
		perCell = time.Duration(float64(perCell) * lat.SamplingPenalty)
	}
	transfer := time.Duration(nCells) * perCell
	if d.midScan {
		// Pay the round trip plus the fraction of the transfer that made it
		// through before the drop; the partial rows are discarded.
		partial := time.Duration(float64(transfer) * d.dropAt)
		if err := lat.sleep(ctx, scaleDur(lat.QueryRoundTrip+partial, d.slowFactor)); err != nil {
			return cells, err
		}
		c.server.acct.addQuery()
		return cells, d.err
	}
	if err := lat.sleep(ctx, scaleDur(lat.QueryRoundTrip+transfer, d.slowFactor)); err != nil {
		return cells, err
	}
	c.server.acct.addScan(selected, m, nCells, bytes)
	return cells, nil
}
