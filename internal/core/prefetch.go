// The scan prefetcher (DESIGN.md §16). A bulk detect reads every table's
// information_schema rows in one query before the batch starts
// (simdb.Conn.SchemaMetadata), so what is left to prefetch is each table's
// uncertain-column content scan, issued the moment s2 knows the columns,
// and — under UseHistogram — the ANALYZE of each table whose snapshot lacks
// statistics, issued up front. Every read is handed out as a future; s1
// (ANALYZE) and s3 (scan) are gated on them (pipeline.Stage.Ready), so a
// table whose read is still on the wire is parked by the scheduler while the
// workers run tables whose data arrived.
//
// How many scans are in flight follows Little's law rather than a configured
// window: depth = 1 + ⌊observed scan latency × the rate the pool could
// consume tables⌋, the rate being workers ÷ the stage time one table costs a
// worker. Potential, not achieved, throughput: a pool starved by storage
// consumes slowly, and dividing by its own low rate would talk the
// prefetcher into the shallow depth that starves it. With no storage latency
// the product truncates to 0 and the depth is 1. Scans over the depth wait
// their turn (their tables stay parked, no worker waits), and scanned content
// is bounded by a byte budget tied to the cache budget: when
// completed-but-unconsumed content exceeds it, a new scan is skipped — never
// queued — and s3 reads synchronously. ANALYZE is one small round trip per
// cold table and runs ahead freely.
//
// Every read runs under the batch context, and the simdb client is
// context-aware, so cancelling the request drains all in-flight reads
// promptly; close() waits for them, making DetectDatabase's return a
// barrier with no leaked goroutines.
package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simdb"
)

// estimatorGain is the weight of a new latency or busy sample (TCP's RTT
// gain): a real shift shows within ~8 samples, a lone straggler counts for
// an eighth of its excess.
const estimatorGain = 1.0 / 8

// readKind indexes the prefetcher's futures.
type readKind int

const (
	analyzeRead readKind = iota
	scanRead
)

// kindLabel names a read kind in taste_pipeline_prefetch_total. ANALYZE is
// the table's metadata read — it replies with the refreshed rows — so it
// keeps the "meta" label.
var kindLabel = [2]string{"meta", "scan"}

var (
	prefetchInflight = obs.Default.Gauge("taste_pipeline_prefetch_inflight", "kind", "scan")
	prefetchDepth    = obs.Default.Gauge("taste_pipeline_prefetch_depth", "kind", "scan")
)

// depthEstimator turns what the batch has measured so far into the scans'
// in-flight bound. It reads no clock and counts no completions, so a stall
// in achieved throughput cannot shrink the bound: only faster storage or
// slower stages can.
type depthEstimator struct {
	workers int
	// prior is the schema read's latency, in seconds: a scan costs at least
	// the round trip a metadata read costs, on the same server, so it stands
	// in until the first scan returns. latency is the smoothed
	// issue-to-completion time of a scan, busy the smoothed time a worker
	// spent in each of a table's four stages. 0 means "no sample yet".
	prior, latency float64
	busy           [4]float64
}

func smooth(avg *float64, sample time.Duration) {
	if s := sample.Seconds(); *avg == 0 {
		*avg = s
	} else {
		*avg += estimatorGain * (s - *avg)
	}
}

func (e *depthEstimator) observeLatency(d time.Duration)         { smooth(&e.latency, d) }
func (e *depthEstimator) observeBusy(stage int, d time.Duration) { smooth(&e.busy[stage], d) }

// depth is 1 + ⌊latency × workers ÷ busy-per-table⌋, or 1 while either
// factor is unknown. Busy-per-table sums the stages that have reported, so
// at the start of a batch — s4 not heard from yet — it is a lower bound, the
// rate an upper bound, and the first reads go out wide: an overestimate
// costs parked tables and budgeted bytes, an underestimate costs throughput.
// s1 alone is no estimate, though: it only unwraps the metadata, and a pool
// that looked free would open the depth on microsecond stages. The first
// forward (s2), which every table pays, has to report.
func (e *depthEstimator) depth() int {
	lat := e.latency
	if lat == 0 {
		lat = e.prior
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

// future is a pending (or completed) storage read: a table's ANALYZE (tm) or
// its content scan (names, content, bytes).
type future struct {
	done    chan struct{}
	table   string
	names   []string
	issued  bool // the read went out (a scan may still wait in the queue)
	tm      *simdb.TableMeta
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
	inflight  int   // scans issued and not yet returned
	heldBytes int64 // bytes of completed-but-unconsumed scan content
	// futures holds, by kind, the futures no stage has consumed yet; queue
	// is the scans still waiting for an in-flight slot, oldest first.
	futures [2]map[string]*future
	queue   []*future

	hits, waste, skipped int
	wastedRetries        int
}

// newPrefetcher starts the ANALYZE of every table in the schema snapshot
// that still lacks statistics; scans start as s2 asks for them. prior is the
// snapshot read's latency, the scan depth's first estimate.
func newPrefetcher(ctx context.Context, d *Detector, conn *simdb.Conn, metas []*simdb.TableMeta, workers int, budget int64, prior time.Duration) *prefetcher {
	p := &prefetcher{
		d: d, conn: conn, ctx: ctx, budget: budget,
		est:     depthEstimator{workers: workers, prior: prior.Seconds()},
		futures: [2]map[string]*future{make(map[string]*future), make(map[string]*future)},
	}
	for _, tm := range metas {
		if d.needsAnalyze(tm) {
			f := &future{done: make(chan struct{}), table: tm.Name, issued: true}
			p.futures[analyzeRead][tm.Name] = f
			p.wg.Add(1)
			go p.analyze(f)
		}
	}
	return p
}

// analyze is the one round trip of a table whose statistics are missing:
// ANALYZE replies with the refreshed metadata the future then carries.
func (p *prefetcher) analyze(f *future) {
	defer p.wg.Done()
	f.tm, f.retries, f.err = p.d.analyzeTable(p.ctx, p.conn, f.table)
	close(f.done)
}

// advanceLocked issues queued scans, oldest first, while the derived depth
// allows. It runs whenever a slot frees, a scan is queued, or a sample may
// have moved the depth.
func (p *prefetcher) advanceLocked() {
	if p.closed || p.ctx.Err() != nil {
		return
	}
	depth := p.est.depth()
	prefetchDepth.Set(int64(depth))
	for len(p.queue) > 0 && p.inflight < depth {
		f := p.queue[0]
		p.queue = p.queue[1:]
		f.issued = true
		p.inflight++
		prefetchInflight.Add(1)
		p.wg.Add(1)
		go p.readScan(f)
	}
}

// observeBusy feeds one finished stage's duration to the estimator; a first
// sample, or faster stages, may deepen the depth right away.
func (p *prefetcher) observeBusy(stage int, d time.Duration) {
	p.mu.Lock()
	p.est.observeBusy(stage, d)
	p.advanceLocked()
	p.mu.Unlock()
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
		prefetchCount(scanRead, prefetchSkipped)
		return
	}
	f := &future{done: make(chan struct{}), table: table, names: names}
	p.futures[scanRead][table] = f
	p.queue = append(p.queue, f)
	p.advanceLocked()
}

// readScan runs one scan, then fills its future in, releases its slot, feeds
// a successful read's latency to the estimator and issues whatever the freed
// slot allows — and only then fires the future.
func (p *prefetcher) readScan(f *future) {
	defer p.wg.Done()
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
	p.mu.Lock()
	f.content, f.bytes, f.retries, f.err = content, bytes, retries, err
	p.heldBytes += bytes
	p.inflight--
	prefetchInflight.Add(-1)
	if err == nil {
		p.est.observeLatency(time.Since(issued))
	}
	p.advanceLocked()
	p.mu.Unlock()
	close(f.done)
}

// ready is the gate of the stage that consumes the table's read of kind k
// (s1 an ANALYZE, s3 a scan): nil when there is none to wait for.
func (p *prefetcher) ready(k readKind, table string) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.futures[k][table]; f != nil {
		return f.done
	}
	return nil
}

// await consumes the table's read of kind k. nil means there is none — no
// prefetcher, a snapshot that needed no ANALYZE, or a scan s2 never started
// (no uncertain column, or the byte brake declined it) — and the stage reads
// synchronously. The scheduler runs the stage only after ready fired, so the
// wait here is for callers without a gate.
func (p *prefetcher) await(k readKind, table string) *future {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	f := p.futures[k][table]
	delete(p.futures[k], table) // claimed: no longer a waste candidate
	p.mu.Unlock()
	if f == nil {
		return nil
	}
	select {
	case <-f.done:
	case <-p.ctx.Done():
		return &future{err: p.ctx.Err()}
	}
	p.mu.Lock()
	p.heldBytes -= f.bytes
	p.hits++
	p.mu.Unlock()
	prefetchCount(k, prefetchHit)
	return f
}

// close stops issuing reads and waits for every one in flight — the no-leak
// barrier. Reads that were issued but never consumed (their table degraded,
// failed, or the batch was cancelled) are accounted as waste, and their
// retries are folded into the batch ledger by the caller. Scans still in the
// queue cost nothing and are dropped.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, futures := range p.futures {
		for _, f := range futures {
			if f.issued {
				p.waste++
				p.wastedRetries += f.retries
				prefetchCount(readKind(k), prefetchWaste)
			}
		}
	}
	p.futures, p.queue = [2]map[string]*future{}, nil
}
