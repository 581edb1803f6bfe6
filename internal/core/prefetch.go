// The scan prefetcher (DESIGN.md §16): it issues the storage reads a batch's
// stages will need — every table's metadata (plus ANALYZE when histograms
// are on) ahead of s1, in table order and in grouped queries, and each
// table's uncertain-column content scan the moment s2 knows the columns —
// and hands every read out as a future. s1 and s3 are gated on those futures
// (pipeline.Stage.Ready), so a table whose read is still on the wire is
// parked by the scheduler while the workers run tables whose data arrived.
//
// How many reads are in flight follows Little's law rather than a
// configured window: per kind, depth = 1 + ⌊observed read latency × the rate
// the pool could consume tables⌋, the rate being workers ÷ the stage time
// one table costs a worker. Potential, not achieved, throughput: a pool
// starved by storage consumes slowly, and dividing by its own low rate would
// talk the prefetcher into the shallow depth that starves it. With no
// storage latency the product truncates to 0 and the depth is 1. Reads over
// the depth wait their turn (their tables stay parked, no worker waits);
// metadata is small and runs ahead freely, while scanned content is bounded
// by a byte budget tied to the cache budget: when completed-but-unconsumed
// content exceeds it, a new scan is skipped — never queued — and s3 reads
// synchronously.
//
// Every read runs under the batch context, and the simdb client is
// context-aware, so cancelling the request drains all in-flight reads
// promptly; close() waits for them, making DetectDatabase's return a
// barrier with no leaked goroutines.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simdb"
)

const (
	// metaGroupCap caps the tables one grouped metadata query names: long
	// enough to amortize the round trip, short enough that one slow or
	// failed query holds up few tables.
	metaGroupCap = 16
	// estimatorGain is the weight of a new latency or busy sample (TCP's
	// RTT gain): a real shift shows within ~8 samples, a lone straggler
	// counts for an eighth of its excess.
	estimatorGain = 1.0 / 8
)

// readKind indexes the prefetcher's per-kind state.
type readKind int

const (
	metaRead readKind = iota
	scanRead
)

var (
	prefetchInflight = [2]*obs.Gauge{
		obs.Default.Gauge("taste_pipeline_prefetch_inflight", "kind", "meta"),
		obs.Default.Gauge("taste_pipeline_prefetch_inflight", "kind", "scan"),
	}
	prefetchDepth = [2]*obs.Gauge{
		obs.Default.Gauge("taste_pipeline_prefetch_depth", "kind", "meta"),
		obs.Default.Gauge("taste_pipeline_prefetch_depth", "kind", "scan"),
	}
)

// depthEstimator turns what the batch has measured so far into the in-flight
// bound of each read kind. It reads no clock and counts no completions, so a
// stall in achieved throughput cannot shrink the bound: only faster storage
// or slower stages can.
type depthEstimator struct {
	workers int
	// latency is the smoothed issue-to-completion time of a read, in
	// seconds, by kind; busy is the smoothed time a worker spent in each of
	// a table's four stages. 0 means "no sample yet".
	latency [2]float64
	busy    [4]float64
}

func smooth(avg *float64, sample time.Duration) {
	if s := sample.Seconds(); *avg == 0 {
		*avg = s
	} else {
		*avg += estimatorGain * (s - *avg)
	}
}

func (e *depthEstimator) observeLatency(k readKind, d time.Duration) { smooth(&e.latency[k], d) }
func (e *depthEstimator) observeBusy(stage int, d time.Duration)     { smooth(&e.busy[stage], d) }

// depth is 1 + ⌊latency × workers ÷ busy-per-table⌋, or 1 while either
// factor is unknown. Busy-per-table sums the stages that have reported, so
// at the start of a batch — s4 not heard from yet — it is a lower bound, the
// rate an upper bound, and the first reads go out wide: an overestimate
// costs parked tables and budgeted bytes, an underestimate costs throughput.
// s1 alone is no estimate, though: it only unwraps the metadata, and a pool
// that looked free would open the depth on microsecond reads. The first
// forward (s2), which every table pays, has to report.
func (e *depthEstimator) depth(k readKind) int {
	lat := e.latency[k]
	if lat == 0 {
		// A scan costs at least the round trip a metadata read costs, on
		// the same server: the best prior until the first scan returns.
		lat = e.latency[metaRead]
	}
	if lat == 0 || e.busy[1] == 0 {
		return 1
	}
	perTable := 0.0
	for _, b := range e.busy {
		perTable += b
	}
	return 1 + int(lat*float64(e.workers)/perTable)
}

// metaFuture is a table's pending (or completed) metadata read.
type metaFuture struct {
	done    chan struct{}
	tm      *simdb.TableMeta
	retries int
	err     error
}

// scanFuture is a pending (or completed) content scan.
type scanFuture struct {
	done    chan struct{}
	table   string
	names   []string
	issued  bool // the read left the queue and went out
	content map[string][]string
	bytes   int64
	retries int
	err     error
}

type prefetcher struct {
	d      *Detector
	conn   *simdb.Conn
	ctx    context.Context
	budget int64 // ≤0 = no byte brake

	wg sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	est       depthEstimator
	inflight  [2]int
	heldBytes int64 // bytes of completed-but-unconsumed scan content
	// Every table has a metadata future from the start — there is no "never
	// prefetched" table. futures is aligned with tables, and the reads
	// behind tables[:nextMeta] have been issued; metas indexes the futures
	// s1 has not consumed yet.
	tables   []string
	futures  []*metaFuture
	nextMeta int
	metas    map[string]*metaFuture
	// scans holds the futures s2 started; queue is the subset still waiting
	// for an in-flight slot, oldest first.
	scans map[string]*scanFuture
	queue []*scanFuture

	hits, waste, skipped int
	wastedRetries        int
}

// newPrefetcher creates a metadata future per table and starts reading, so
// the first s1 stages already find their reads in flight.
func newPrefetcher(ctx context.Context, d *Detector, conn *simdb.Conn, tables []string, workers int, budget int64) *prefetcher {
	p := &prefetcher{
		d: d, conn: conn, ctx: ctx, budget: budget,
		est:     depthEstimator{workers: workers},
		tables:  tables,
		futures: make([]*metaFuture, len(tables)),
		metas:   make(map[string]*metaFuture, len(tables)),
		scans:   make(map[string]*scanFuture),
	}
	for i, t := range tables {
		p.futures[i] = &metaFuture{done: make(chan struct{})}
		p.metas[t] = p.futures[i]
	}
	p.mu.Lock()
	p.advanceLocked()
	p.mu.Unlock()
	return p
}

// advanceLocked issues reads while the derived depth allows: metadata in
// table order, in groups; queued scans oldest first. It runs whenever a slot
// frees, a scan is queued, or a sample may have moved the depth.
func (p *prefetcher) advanceLocked() {
	if p.closed || p.ctx.Err() != nil {
		return
	}
	depth := p.est.depth(metaRead)
	prefetchDepth[metaRead].Set(int64(depth))
	for p.nextMeta < len(p.tables) && p.inflight[metaRead] < depth {
		n := min(depth-p.inflight[metaRead], metaGroupCap, len(p.tables)-p.nextMeta)
		group, futures := p.tables[p.nextMeta:p.nextMeta+n], p.futures[p.nextMeta:p.nextMeta+n]
		p.nextMeta += n
		p.startLocked(metaRead, n, func() { p.readMetaGroup(group, futures) })
	}
	depth = p.est.depth(scanRead)
	prefetchDepth[scanRead].Set(int64(depth))
	for len(p.queue) > 0 && p.inflight[scanRead] < depth {
		f := p.queue[0]
		p.queue = p.queue[1:]
		f.issued = true
		p.startLocked(scanRead, 1, func() { p.readScan(f) })
	}
}

// startLocked runs read on its own goroutine, holding n in-flight slots of
// kind k until settle releases them.
func (p *prefetcher) startLocked(k readKind, n int, read func()) {
	p.inflight[k] += n
	prefetchInflight[k].Add(int64(n))
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		read()
	}()
}

// finishLocked releases n in-flight slots of kind k and feeds the latency of
// a read that succeeded to the estimator.
func (p *prefetcher) finishLocked(k readKind, n int, issued time.Time, err error) {
	p.inflight[k] -= n
	prefetchInflight[k].Add(-int64(n))
	if err == nil {
		p.est.observeLatency(k, time.Since(issued))
	}
}

// settle completes a single-future read: publish fills the future in, the
// slot is released, whatever the freed slot allows is issued, and only then
// does the future fire.
func (p *prefetcher) settle(k readKind, issued time.Time, err error, publish func(), done chan struct{}) {
	p.mu.Lock()
	publish()
	p.finishLocked(k, 1, issued, err)
	p.advanceLocked()
	p.mu.Unlock()
	close(done)
}

// observeBusy feeds one finished stage's duration to the estimator; a first
// sample, or faster stages, may deepen the depth right away.
func (p *prefetcher) observeBusy(stage int, d time.Duration) {
	p.mu.Lock()
	p.est.observeBusy(stage, d)
	p.advanceLocked()
	p.mu.Unlock()
}

// readMetaGroup fetches a group's information_schema rows in one round trip.
// A transient failure retries the whole group; its retries are booked on the
// group's first table so the batch ledger counts them once. A table the
// database does not know fails only its own future, and a table that still
// needs ANALYZE keeps its slot for that second round trip. The group's slots
// are released together, so the next group is as large as this one was.
func (p *prefetcher) readMetaGroup(group []string, futures []*metaFuture) {
	issued := time.Now()
	var tms []*simdb.TableMeta
	retries, err := p.d.retry(p.ctx, p.conn.Accounting(), func() error {
		var e error
		tms, e = p.conn.TablesMetadata(p.ctx, group)
		return e
	})
	futures[0].retries = retries
	settled := make([]*metaFuture, 0, len(futures))
	p.mu.Lock()
	for i, f := range futures {
		f.err = err
		if err == nil {
			if f.tm = tms[i]; f.tm == nil {
				f.err = fmt.Errorf("core: table %s has no information_schema rows", group[i])
			}
		}
		if f.err == nil && p.d.needsAnalyze(f.tm) {
			p.wg.Add(1)
			go p.analyze(group[i], f, issued)
			continue
		}
		settled = append(settled, f)
	}
	p.finishLocked(metaRead, len(settled), issued, err)
	p.advanceLocked()
	p.mu.Unlock()
	for _, f := range settled {
		close(f.done)
	}
}

// analyze is the second round trip of a table whose statistics are missing:
// ANALYZE replies with the refreshed metadata the future then carries.
func (p *prefetcher) analyze(table string, f *metaFuture, issued time.Time) {
	defer p.wg.Done()
	tm, n, err := p.d.analyzeTable(p.ctx, p.conn, table)
	p.settle(metaRead, issued, err, func() { f.tm, f.retries, f.err = tm, f.retries+n, err }, f.done)
}

// metaReady is s1's gate: the table's metadata future, nil once consumed.
func (p *prefetcher) metaReady(table string) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.metas[table]; f != nil {
		return f.done
	}
	return nil
}

// awaitMeta consumes the table's metadata read. The scheduler runs s1 only
// after metaReady fired, so the wait here is for callers without a gate.
// ok=false means the table is not one of the batch's.
func (p *prefetcher) awaitMeta(table string) (tm *simdb.TableMeta, retries int, err error, ok bool) {
	p.mu.Lock()
	f := p.metas[table]
	delete(p.metas, table) // claimed: no longer a waste candidate
	p.mu.Unlock()
	if f == nil {
		return nil, 0, nil, false
	}
	select {
	case <-f.done:
	case <-p.ctx.Done():
		return nil, 0, p.ctx.Err(), true
	}
	p.mu.Lock()
	p.hits++
	p.mu.Unlock()
	prefetchCount("meta", "hit", 1)
	return f.tm, f.retries, f.err, true
}

// tryStartScan begins the content scan for a table's uncertain columns —
// called at the end of s2, as soon as the column set is known. Over the
// in-flight depth the scan waits its turn with its table parked; over the
// byte budget it is skipped outright and s3 will scan synchronously.
func (p *prefetcher) tryStartScan(table string, names []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || (p.budget > 0 && p.heldBytes >= p.budget) {
		p.skipped++
		prefetchCount("scan", "skipped", 1)
		return
	}
	f := &scanFuture{done: make(chan struct{}), table: table, names: names}
	p.scans[table] = f
	p.queue = append(p.queue, f)
	p.advanceLocked()
}

func (p *prefetcher) readScan(f *scanFuture) {
	issued := time.Now()
	opts := p.d.Opts
	var content map[string][]string
	retries, err := p.d.retry(p.ctx, p.conn.Accounting(), func() error {
		var e error
		content, e = p.conn.ScanColumns(p.ctx, f.table, f.names, simdb.ScanOptions{
			Strategy: opts.Strategy,
			Rows:     opts.RowsToRead,
			Seed:     opts.ScanSeed,
		})
		return e
	})
	var bytes int64
	for _, vals := range content {
		for _, v := range vals {
			bytes += int64(len(v))
		}
	}
	p.settle(scanRead, issued, err, func() {
		f.content, f.bytes, f.retries, f.err = content, bytes, retries, err
		p.heldBytes += bytes
	}, f.done)
}

// scanReady is s3's gate: the table's scan future, nil when s2 started none
// (no uncertain column, or the byte brake declined it).
func (p *prefetcher) scanReady(table string) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.scans[table]; f != nil {
		return f.done
	}
	return nil
}

// awaitScan consumes the table's content scan. ok=false means the scan was
// never started and s3 must scan synchronously.
func (p *prefetcher) awaitScan(table string) (content map[string][]string, retries int, err error, ok bool) {
	p.mu.Lock()
	f := p.scans[table]
	delete(p.scans, table)
	p.mu.Unlock()
	if f == nil {
		return nil, 0, nil, false
	}
	select {
	case <-f.done:
	case <-p.ctx.Done():
		return nil, 0, p.ctx.Err(), true
	}
	p.mu.Lock()
	p.heldBytes -= f.bytes
	p.hits++
	p.mu.Unlock()
	prefetchCount("scan", "hit", 1)
	return f.content, f.retries, f.err, true
}

// close stops issuing reads and waits for every one in flight — the no-leak
// barrier. Reads that were issued but never consumed (their table degraded,
// failed, or the batch was cancelled) are accounted as waste, and their
// retries are folded into the batch ledger by the caller. Futures whose read
// was never issued cost nothing and are dropped.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, table := range p.tables[:p.nextMeta] {
		if f := p.metas[table]; f != nil {
			p.waste++
			p.wastedRetries += f.retries
			prefetchCount("meta", "waste", 1)
		}
	}
	for _, f := range p.scans {
		if f.issued {
			p.waste++
			p.wastedRetries += f.retries
			prefetchCount("scan", "waste", 1)
		}
	}
	p.metas, p.scans, p.queue = nil, nil, nil
}
