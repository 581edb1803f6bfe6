// Package core implements the Taste two-phase semantic type detection
// framework of §3 — the paper's primary contribution. Phase 1 fetches only
// native metadata from the user database and runs the metadata tower of the
// ADTD model; when any (column, type) probability falls in the uncertainty
// band (α, β), Phase 2 scans just the uncertain columns' content and runs
// the full double-tower model, reusing Phase 1's latent representations
// through the latent cache. Batches of tables execute either sequentially
// or through the pipelined scheduler of §5.
//
// The detection path is fault tolerant: transient database errors are
// retried with exponential backoff + jitter, request deadlines propagate
// into every stage, and when Phase 2 cannot run (scan failures, imminent
// deadline) the affected columns degrade gracefully to their Phase-1
// metadata answer — optionally sharpened by the rule-based detector when
// content was already fetched — instead of failing the request.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adtd"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/retry"
	"repro/internal/ruledet"
	"repro/internal/simdb"
)

// Options configures a Detector. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Alpha and Beta are the probability thresholds of §3.2
	// (0 ≤ α ≤ β ≤ 1): p ≥ β admits a type, p ≤ α rejects it, and
	// anything in between makes the column uncertain and triggers Phase 2.
	// Setting Alpha == Beta disables Phase 2 entirely (the strict-privacy
	// "Taste w/o P2" mode).
	Alpha, Beta float64
	// RowsToRead is m: how many rows a Phase-2 scan retrieves (§6.1.2).
	RowsToRead int
	// CellsPerColumn is n: how many non-empty cell values feed the model.
	CellsPerColumn int
	// SplitThreshold is l: tables wider than this are split into chunks.
	SplitThreshold int
	// Strategy selects first-m-rows or random sampling for Phase-2 scans.
	Strategy simdb.ScanStrategy
	// ScanSeed seeds random sampling and the retry jitter.
	ScanSeed int64
	// UseHistogram runs ANALYZE TABLE when statistics are missing and
	// feeds the statistics/histogram features to the model ("Taste with
	// histogram").
	UseHistogram bool
	// AdmitThreshold is the Phase-2 admission threshold on content-tower
	// probabilities.
	AdmitThreshold float64
	// CacheBytes bounds the latent cache's accounted memory (sized from the
	// cached encodings' tensor dimensions); ≤ 0 disables latent caching
	// ("Taste w/o caching").
	CacheBytes int64
	// ResultCacheBytes bounds the content-hash result cache that memoizes
	// per-chunk model outputs across requests; ≤ 0 (the default) disables
	// memoization. Serving surfaces opt in; experiment/ablation runs keep it
	// off so every detect pays the model forwards it is measuring.
	ResultCacheBytes int64
	// CacheShards is the shard count for both cache tiers (rounded up to a
	// power of two); ≤ 0 selects cache.DefaultShards.
	CacheShards int

	// MaxRetries caps how many times a transient database error is retried
	// per operation (connect, metadata fetch, content scan) — and therefore
	// per column, since a column's content is fetched by exactly one scan.
	MaxRetries int
	// RetryBaseDelay is the backoff base: attempt k sleeps
	// base·2ᵏ + jitter, capped at RetryMaxDelay. Jitter is drawn from a
	// generator seeded by ScanSeed, keeping runs reproducible.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep.
	RetryMaxDelay time.Duration
	// DeadlineMargin triggers early degradation: when less than this
	// remains before the request deadline, Phase-2 work is skipped and the
	// affected columns fall back to Phase 1 rather than risk returning
	// nothing at all.
	DeadlineMargin time.Duration
	// DisableDegradation restores the strict behaviour: any Phase-2
	// failure fails the whole table job instead of degrading its columns.
	DisableDegradation bool
}

// DefaultOptions returns the paper's default configuration (§6.2):
// α=0.1, β=0.9, m=50, n=10, l=20, first-m-rows scanning, no histograms —
// plus the fault-tolerance defaults (3 retries, 2 ms backoff base).
func DefaultOptions() Options {
	return Options{
		Alpha:          0.1,
		Beta:           0.9,
		RowsToRead:     50,
		CellsPerColumn: 10,
		SplitThreshold: 20,
		Strategy:       simdb.FirstRows,
		AdmitThreshold: 0.5,
		CacheBytes:     64 << 20,
		MaxRetries:     3,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  100 * time.Millisecond,
		DeadlineMargin: 10 * time.Millisecond,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case o.Alpha < 0 || o.Beta > 1 || o.Alpha > o.Beta:
		return fmt.Errorf("core: need 0 ≤ α ≤ β ≤ 1, got α=%v β=%v", o.Alpha, o.Beta)
	case o.RowsToRead < 1:
		return fmt.Errorf("core: RowsToRead must be ≥ 1")
	case o.CellsPerColumn < 1:
		return fmt.Errorf("core: CellsPerColumn must be ≥ 1")
	case o.AdmitThreshold <= 0 || o.AdmitThreshold >= 1:
		return fmt.Errorf("core: AdmitThreshold must be in (0,1)")
	case o.MaxRetries < 0:
		return fmt.Errorf("core: MaxRetries must be ≥ 0")
	case o.RetryBaseDelay < 0 || o.RetryMaxDelay < 0 || o.DeadlineMargin < 0:
		return fmt.Errorf("core: retry delays and deadline margin must be ≥ 0")
	}
	return nil
}

// P2Disabled reports whether the options make Phase 2 unreachable.
func (o Options) P2Disabled() bool { return o.Alpha == o.Beta }

// FaultStats is the detector's fault-tolerance ledger: how often the
// degradation ladder was exercised since the detector was created.
type FaultStats struct {
	// Retries counts backoff retries of transient database errors.
	Retries int
	// DegradedColumns counts columns that fell back to their Phase-1
	// answer (both failure- and deadline-triggered).
	DegradedColumns int
	// DeadlineDegraded counts degradations caused by an imminent or
	// exceeded deadline.
	DeadlineDegraded int
	// FailureDegraded counts degradations caused by exhausted retries or
	// permanent scan errors.
	FailureDegraded int
}

// Detector is the Taste detection service: a trained ADTD model plus the
// framework configuration. It is safe for concurrent use once the model is
// in eval mode.
//
// The model is held behind an atomic pointer (RCU style): every request
// captures the pointer exactly once when its table job is created and uses
// that model for all four stages, so SwapModel never tears a request across
// two weight sets. Caches need no flushing on swap — every cache key embeds
// the model's process-unique generation.
type Detector struct {
	model atomic.Pointer[adtd.Model]
	Opts  Options

	cache   *cache.Latent
	results *cache.Result
	rules   *ruledet.Detector

	mu       sync.Mutex
	feedback []adtd.FeedbackExample

	retrier *retry.Retrier

	faultMu sync.Mutex
	stats   FaultStats
}

// NewDetector creates a detector over a trained model. The model is
// switched to eval mode.
func NewDetector(model *adtd.Model, opts Options) (*Detector, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	model.SetEval()
	latents := cache.NewLatent(opts.CacheBytes, opts.CacheShards)
	latents.SetMetrics(cache.NewTierMetrics(obs.Default, "latent"))
	results := cache.NewResult(opts.ResultCacheBytes, opts.CacheShards)
	results.SetMetrics(cache.NewTierMetrics(obs.Default, "result"))
	d := &Detector{
		Opts:    opts,
		cache:   latents,
		results: results,
		rules:   ruledet.Default(),
		retrier: retry.New(retry.Policy{
			MaxRetries:     opts.MaxRetries,
			BaseDelay:      opts.RetryBaseDelay,
			MaxDelay:       opts.RetryMaxDelay,
			DeadlineMargin: opts.DeadlineMargin,
		}, opts.ScanSeed+1),
	}
	d.model.Store(model)
	return d, nil
}

// Model returns the currently serving model. Requests in flight may still be
// using an older model they captured at admission.
func (d *Detector) Model() *adtd.Model { return d.model.Load() }

// SwapModel atomically installs m as the serving model and returns the
// previous one. The swap is zero-downtime: in-flight requests finish on the
// model they started with, new requests see m immediately, and no cache
// flush is needed — latent and result keys embed the weight generation,
// which is process-unique, so entries from the two models can never alias.
// The old model is returned (not destroyed) so callers can swap back.
func (d *Detector) SwapModel(m *adtd.Model) *adtd.Model {
	m.SetEval()
	return d.model.Swap(m)
}

// modelKey carries a per-request model override through the stage contexts.
type modelKey struct{}

// WithModel returns a context pinning detection to the given model instead
// of the detector's current one — the mechanism behind per-request model
// version overrides. The model must share the detector's type space
// semantics (it normally comes from the registry as a Sibling of the serving
// model); it is used for every stage of the request, so the answer is
// internally consistent with exactly one model.
func WithModel(ctx context.Context, m *adtd.Model) context.Context {
	return context.WithValue(ctx, modelKey{}, m)
}

// requestModel resolves the model a request should run on: the WithModel
// override when present, else the current serving model.
func (d *Detector) requestModel(ctx context.Context) *adtd.Model {
	if m, ok := ctx.Value(modelKey{}).(*adtd.Model); ok && m != nil {
		return m
	}
	return d.model.Load()
}

// Cache exposes the latent cache tier (for stats and tests).
func (d *Detector) Cache() *cache.Latent { return d.cache }

// Results exposes the content-hash result cache tier (for stats and tests).
func (d *Detector) Results() *cache.Result { return d.results }

// FaultStats returns a snapshot of the fault-tolerance ledger.
func (d *Detector) FaultStats() FaultStats {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	return d.stats
}

func (d *Detector) noteRetry() {
	d.faultMu.Lock()
	d.stats.Retries++
	d.faultMu.Unlock()
	detectorRetriesTotal.Inc()
}

func (d *Detector) noteDegraded(n int, deadline bool) {
	if n == 0 {
		return
	}
	d.faultMu.Lock()
	d.stats.DegradedColumns += n
	if deadline {
		d.stats.DeadlineDegraded += n
	} else {
		d.stats.FailureDegraded += n
	}
	d.faultMu.Unlock()
	if deadline {
		degradedDeadlineTotal.Add(int64(n))
	} else {
		degradedFailureTotal.Add(int64(n))
	}
}

// retry runs op under the detector's retry policy (the shared
// internal/retry machinery): transient database errors are retried up to
// MaxRetries times with exponential backoff + seeded jitter, giving up
// early when the context dies or the next backoff would cross the deadline.
// Retries are recorded in the detector ledger and, when acct is non-nil, in
// the database's accounting ledger. Returns the retry count.
func (d *Detector) retry(ctx context.Context, acct *simdb.Accounting, op func() error) (int, error) {
	return d.retrier.Do(ctx, simdb.IsTransient, func() {
		d.noteRetry()
		if acct != nil {
			acct.AddRetry()
		}
	}, op)
}

// ColumnResult is the detection outcome for one column.
type ColumnResult struct {
	Table  string
	Column string
	// Admitted is the final set Aᶜ of admitted semantic types (§3.3),
	// sorted; empty means the column has no semantic type.
	Admitted []string
	// Uncertain reports whether Phase 1 was uncertain about the column.
	Uncertain bool
	// Phase records which phase produced the final answer (1 or 2).
	Phase int
	// Degraded reports that Phase 2 was required but could not run; the
	// answer is Phase 1's (possibly sharpened by the rule-based detector).
	Degraded bool
	// DegradeReason explains a degradation ("content scan failed: …",
	// "deadline imminent", …). Empty unless Degraded.
	DegradeReason string
	// Probs are the deciding phase's probabilities indexed by the model's
	// type space.
	Probs []float64
}

// TableResult aggregates one table's detection.
type TableResult struct {
	Table          string
	Columns        []ColumnResult
	ScannedColumns int
	// Retries counts the backoff retries spent on this table alone. Callers
	// aggregating concurrent requests must sum these rather than diffing the
	// detector's global FaultStats ledger, which other requests also move.
	Retries int
}

// DegradedColumns counts the table's degraded columns.
func (t *TableResult) DegradedColumns() int {
	n := 0
	for i := range t.Columns {
		if t.Columns[i].Degraded {
			n++
		}
	}
	return n
}

// Report aggregates a batch detection run — the end-to-end view of §6.2.
type Report struct {
	Tables           []*TableResult
	Duration         time.Duration
	TotalColumns     int
	UncertainColumns int
	ScannedColumns   int
	// DegradedColumns counts columns answered by the degradation ladder.
	DegradedColumns int
	// Retries counts backoff retries spent on this batch.
	Retries     int
	CacheHits   int
	CacheMisses int
	// ContentForwards counts the Phase-2 content batches this request sent
	// to the model — each one batched forward in direct or coalesced mode,
	// or one submission to the cross-request inferencer. Cross-table
	// batching exists to shrink this number (DESIGN.md §16).
	ContentForwards int
	// PrefetchHits/PrefetchWasted/PrefetchSkipped summarize the scan
	// prefetcher: consumed reads, reads issued for nothing, and scans
	// declined by the byte brake.
	PrefetchHits    int
	PrefetchWasted  int
	PrefetchSkipped int
	// Steals and StolenStages summarize work-stealing migrations during
	// pipelined execution.
	Steals       int64
	StolenStages int64
	Errors       []error
}

// ScannedRatio returns the intrusiveness metric of §6.2.
func (r *Report) ScannedRatio() float64 {
	if r.TotalColumns == 0 {
		return 0
	}
	return float64(r.ScannedColumns) / float64(r.TotalColumns)
}

// Find returns the result for a column, or nil.
func (r *Report) Find(table, column string) *ColumnResult {
	for _, t := range r.Tables {
		if t.Table != table {
			continue
		}
		for i := range t.Columns {
			if t.Columns[i].Column == column {
				return &t.Columns[i]
			}
		}
	}
	return nil
}

// ExecMode selects how a batch is executed (§5, DESIGN.md §16).
//
// Zero-value semantics, uniform across every tunable below: 0 always means
// "use the default" (resolved against the detector's Options when the batch
// starts), and a negative value always means "disable the feature". The
// zero ExecMode is therefore exactly SequentialMode, and a bare
// ExecMode{Pipelined: true} runs the work-stealing scheduler with every
// knob at its default. Callers must not treat 0 as a literal size anywhere
// in this struct.
type ExecMode struct {
	// Pipelined enables the work-stealing scheduler (Algorithm 1 +
	// DESIGN.md §16); false processes tables sequentially.
	Pipelined bool
	// Workers sizes the unified work-stealing pool. 0 derives the size
	// from PrepWorkers+InferWorkers — the capacity the legacy fixed pools
	// offered — or defaults to 4, the paper's 2+2, when those are unset
	// too.
	Workers int
	// PrepWorkers and InferWorkers are the legacy §5 fixed-pool sizes.
	// Stage kinds are scheduling priorities now, not dedicated lanes, so
	// the two survive only as capacity inputs to the Workers derivation.
	PrepWorkers  int
	InferWorkers int
	// PrefetchBytes bounds the bytes held by completed-but-unconsumed
	// prefetched scans — backpressure tied to the cache byte budget. 0
	// defaults to a quarter of Options.CacheBytes (floor 1 MiB); negative
	// removes the byte brake. How many reads are in flight is not
	// configured: the prefetcher derives it from measured read latency and
	// stage time (prefetch.go).
	PrefetchBytes int64
}

// SequentialMode is the execution mode of the baselines and of "Taste w/o
// pipelining".
var SequentialMode = ExecMode{}

// PipelinedMode returns the default pipelined mode with the paper's pool
// size of 2 (§6.3) — 4 workers total under the work-stealing scheduler.
func PipelinedMode() ExecMode {
	return ExecMode{Pipelined: true, PrepWorkers: 2, InferWorkers: 2}
}

// AutoMode sizes the work-stealing pool from the machine instead of the
// paper's fixed 2+2: one worker per logical CPU (floor 4, so a small host
// still overlaps I/O with compute). The legacy per-kind fields are filled
// in for callers that still display or override them; PrefetchBytes stays 0
// and resolves to its default per the struct contract.
func AutoMode() ExecMode {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return ExecMode{Pipelined: true, Workers: w, PrepWorkers: w / 2, InferWorkers: w - w/2}
}

// withDefaults resolves the mode's zero values against the detector
// options, returning a fully concrete mode: Workers ≥ 1, PrefetchBytes
// either positive or explicitly disabled (negative input maps to the
// disabled sentinel 0). Sequential modes pass through untouched.
func (m ExecMode) withDefaults(opts Options) ExecMode {
	if !m.Pipelined {
		return m
	}
	if m.Workers == 0 {
		m.Workers = pipeline.Scheduler{PrepWorkers: m.PrepWorkers, InferWorkers: m.InferWorkers}.WorkerCount()
	}
	switch {
	case m.PrefetchBytes < 0:
		m.PrefetchBytes = 0 // no byte brake
	case m.PrefetchBytes == 0:
		m.PrefetchBytes = opts.CacheBytes / 4
		if m.PrefetchBytes < 1<<20 {
			m.PrefetchBytes = 1 << 20
		}
	}
	return m
}

// tableJob carries per-table state across the four stages. The model is
// captured once at job creation: all four stages (and their cache keys) use
// the same weights even if the detector hot-swaps mid-request.
type tableJob struct {
	d      *Detector
	model  *adtd.Model
	conn   *simdb.Conn
	dbName string
	table  string
	// meta is the table's information_schema view from the batch's schema
	// snapshot; nil for a single-table detect, whose s1 reads its own.
	meta *simdb.TableMeta
	// pf, when set, serves this job's storage reads from the batch's scan
	// prefetcher; fwd, when set, counts the batch's content forwards.
	pf      *prefetcher
	fwd     *atomic.Int64
	info    *metafeat.TableInfo
	chunks  []*metafeat.TableInfo
	offsets []int // global index of each chunk's first column
	// p1Probs[i] is Phase 1's probability row for global column i.
	p1Probs   [][]float64
	uncertain []int // global indices of uncertain columns
	retries   int   // backoff retries spent on this table
	res       *TableResult
}

// cacheKey identifies a chunk's latents in the latent cache. The model
// generation prefix orphans every cached latent in O(1) when the weights
// change (SetTrain, Load, ApplyFeedback) — and, because generations are
// process-unique, keeps entries from hot-swapped models from ever aliasing.
// Database and table names are free-form (nothing validates them), so each
// is length-prefixed: tenant "a.b" with table "c" and tenant "a" with table
// "b.c" must not share latents.
func (d *Detector) cacheKey(m *adtd.Model, dbName, table string, chunk int) string {
	return fmt.Sprintf("g%d/%d:%s/%d:%s#%d/h=%v", m.Generation(), len(dbName), dbName, len(table), table, chunk, d.Opts.UseHistogram)
}

// deadlineNear reports whether the request deadline has passed or is within
// margin — the trigger for pre-emptive degradation. A plain cancellation
// (no deadline) is not "near": it is handled as an abort by the caller.
func deadlineNear(ctx context.Context, margin time.Duration) (string, bool) {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return "deadline exceeded", true
		}
		return "", false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= margin {
		return "deadline imminent", true
	}
	return "", false
}

// fetchTableMeta fetches a table's metadata, running ANALYZE when histograms
// are requested but statistics are absent — two round trips at most, since
// ANALYZE replies with the refreshed metadata. Transient failures are
// retried per the backoff policy; the retry count is returned for the
// caller's table ledger. This is DetectTable's path; a bulk detect reads
// every table's metadata in one schema query and shares
// needsAnalyze/analyzeTable.
func (d *Detector) fetchTableMeta(ctx context.Context, conn *simdb.Conn, table string) (*simdb.TableMeta, int, error) {
	var tm *simdb.TableMeta
	retries, err := d.retry(ctx, conn.Accounting(), func() error {
		var e error
		tm, e = conn.TableMetadata(ctx, table)
		return e
	})
	if err != nil {
		return nil, retries, err
	}
	if d.needsAnalyze(tm) {
		var n int
		tm, n, err = d.analyzeTable(ctx, conn, table)
		retries += n
		if err != nil {
			return nil, retries, err
		}
	}
	return tm, retries, nil
}

// needsAnalyze reports whether histograms are on and any column of tm still
// lacks statistics.
func (d *Detector) needsAnalyze(tm *simdb.TableMeta) bool {
	if !d.Opts.UseHistogram {
		return false
	}
	for i := range tm.Columns {
		if tm.Columns[i].Stats == nil {
			return true
		}
	}
	return false
}

// analyzeTable runs ANALYZE under the retry policy and returns the refreshed
// metadata it replies with.
func (d *Detector) analyzeTable(ctx context.Context, conn *simdb.Conn, table string) (*simdb.TableMeta, int, error) {
	var tm *simdb.TableMeta
	retries, err := d.retry(ctx, conn.Accounting(), func() error {
		var e error
		tm, e = conn.AnalyzeTable(ctx, table, simdb.AnalyzeOptions{})
		return e
	})
	return tm, retries, err
}

// s1PrepMetadata takes the table's metadata — from the batch's schema
// snapshot, refreshed by ANALYZE when histograms need statistics it lacks
// (the prefetcher's future, which the stage was gated on, or a synchronous
// call without a prefetcher), or read on its own for a single-table detect —
// and builds the chunked table view.
func (j *tableJob) s1PrepMetadata(ctx context.Context) error {
	tm, n, err := j.meta, 0, error(nil)
	switch {
	case tm == nil:
		tm, n, err = j.d.fetchTableMeta(ctx, j.conn, j.table)
	case j.d.needsAnalyze(tm):
		if f := j.pf.await(analyzeRead, j.table); f != nil {
			tm, n, err = f.tm, f.retries, f.err
		} else {
			tm, n, err = j.d.analyzeTable(ctx, j.conn, j.table)
		}
	}
	j.retries += n
	if err != nil {
		return err
	}
	j.info = metafeat.FromTableMeta(tm)
	j.chunks = j.info.Split(j.d.Opts.SplitThreshold)
	off := 0
	for _, ch := range j.chunks {
		j.offsets = append(j.offsets, off)
		off += len(ch.Columns)
	}
	return nil
}

// s2InferMetadata runs Phase 1 inference per chunk, populates the latent
// cache, and classifies columns into certain/uncertain.
func (j *tableJob) s2InferMetadata(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts := j.d.Opts
	j.res = &TableResult{Table: j.table}
	// Chunks cover the columns consecutively, so appending per chunk keeps
	// p1Probs indexed by global column position.
	for ci, chunk := range j.chunks {
		// Result-cache fast path: the chunk's metadata hashes to a key that
		// memoizes Phase 1's probability rows, so a repeat detect over
		// unchanged metadata skips the metadata tower entirely. The latent
		// cache keeps its (older) entry for this chunk, so a Phase-2 stage
		// downstream still finds latents without recomputing them.
		var rkey string
		if j.d.results.Enabled() {
			rkey = j.d.metaResultKey(j.model, chunk)
			if probs, ok := j.d.results.Get(rkey); ok {
				j.p1Probs = append(j.p1Probs, probs...)
				continue
			}
		}
		menc, probs, err := j.metaForward(chunk)
		if err != nil {
			return err
		}
		if !j.d.cache.Put(j.d.cacheKey(j.model, j.dbName, j.table, ci), menc) {
			// Not consumed (disabled, oversized, or an equal entry already
			// cached): the fresh graph goes back to the tensor arena.
			menc.Release()
		}
		if rkey != "" {
			j.d.results.Put(rkey, probs)
		}
		j.p1Probs = append(j.p1Probs, probs...)
	}
	for global, row := range j.p1Probs {
		col := j.info.Columns[global]
		cr := ColumnResult{Table: j.table, Column: col.Name, Phase: 1, Probs: row}
		cr.Admitted = admitted(j.model, row, opts.Beta)
		if !opts.P2Disabled() && isUncertain(row, opts.Alpha, opts.Beta) {
			cr.Uncertain = true
			j.uncertain = append(j.uncertain, global)
		}
		j.res.Columns = append(j.res.Columns, cr)
	}
	// The uncertain set is known the moment Phase 1 resolves: start the
	// content scan now, overlapping it with whatever inference the pool
	// runs before this job's s3 is dispatched.
	if j.pf != nil && len(j.uncertain) > 0 {
		names := make([]string, len(j.uncertain))
		for i, g := range j.uncertain {
			names[i] = j.info.Columns[g].Name
		}
		j.pf.tryStartScan(j.table, names)
	}
	return nil
}

// degrade marks the given (global) columns as degraded with the reason,
// leaving their Phase-1 answer in place. Columns Phase 2 already resolved
// are skipped.
func (j *tableJob) degrade(globals []int, reason string, deadline bool) {
	n := 0
	for _, g := range globals {
		cr := &j.res.Columns[g]
		if cr.Degraded || cr.Phase == 2 {
			continue
		}
		cr.Degraded = true
		cr.DegradeReason = reason
		n++
	}
	j.d.noteDegraded(n, deadline)
}

// degradeWithRules degrades columns whose content was already fetched: the
// rule-based detector (regex/dictionary validators) runs over the scanned
// values and its hits are merged into the Phase-1 answer — cheaper than the
// content tower by orders of magnitude, so it fits inside a dying deadline.
func (j *tableJob) degradeWithRules(globals []int, reason string, deadline bool) {
	for _, g := range globals {
		cr := &j.res.Columns[g]
		if cr.Degraded || cr.Phase == 2 {
			continue
		}
		if vals := j.info.Columns[g].Values; len(vals) > 0 {
			cr.Admitted = mergeTypes(cr.Admitted, j.d.ruleFallback(j.model, vals))
		}
	}
	j.degrade(globals, reason, deadline)
}

// ruleFallback runs the rule-based detector over values, keeping only types
// the given model's type space knows.
func (d *Detector) ruleFallback(m *adtd.Model, values []string) []string {
	if d.rules == nil {
		return nil
	}
	var out []string
	for _, t := range d.rules.DetectColumn(values) {
		if _, ok := m.Types.Index(t); ok {
			out = append(out, t)
		}
	}
	return out
}

// mergeTypes returns the sorted union of two admitted-type sets.
func mergeTypes(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range [][]string{a, b} {
		for _, t := range s {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// s3PrepContent scans the uncertain columns' content (§3.3). Certain
// columns are never scanned. Transient scan failures are retried with
// backoff; exhausted retries or permanent errors degrade the columns to
// Phase 1 instead of failing the table (unless DisableDegradation).
func (j *tableJob) s3PrepContent(ctx context.Context) error {
	if len(j.uncertain) == 0 {
		return nil
	}
	opts := j.d.Opts
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err // user cancellation: abort, nothing to salvage
	}
	if !opts.DisableDegradation {
		if reason, ok := deadlineNear(ctx, opts.DeadlineMargin); ok {
			j.degrade(j.uncertain, reason, true)
			return nil
		}
	}
	var content map[string][]string
	var n int
	var err error
	// Consume the scan s2 started (same columns, same options), which the
	// stage was gated on; without one (no prefetcher, or the byte brake
	// skipped it) the stage scans synchronously.
	if f := j.pf.await(scanRead, j.table); f != nil {
		content, n, err = f.content, f.retries, f.err
	} else {
		names := make([]string, len(j.uncertain))
		for i, g := range j.uncertain {
			names[i] = j.info.Columns[g].Name
		}
		n, err = j.d.retry(ctx, j.conn.Accounting(), func() error {
			var e error
			content, e = j.conn.ScanColumns(ctx, j.table, names, simdb.ScanOptions{
				Strategy: opts.Strategy,
				Rows:     opts.RowsToRead,
				Seed:     opts.ScanSeed,
			})
			return e
		})
	}
	j.retries += n
	if err != nil {
		if opts.DisableDegradation {
			return err
		}
		if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(ctxErr, context.DeadlineExceeded) {
			return ctxErr
		}
		if reason, ok := deadlineNear(ctx, opts.DeadlineMargin); ok {
			j.degrade(j.uncertain, reason, true)
		} else {
			j.degrade(j.uncertain, "content scan failed: "+err.Error(), false)
		}
		return nil
	}
	for _, g := range j.uncertain {
		j.info.Columns[g].Values = content[j.info.Columns[g].Name]
	}
	j.res.ScannedColumns = len(j.uncertain)
	return nil
}

// s4InferContent runs Phase 2 over the table's pending uncertain columns,
// reusing cached metadata latents when available and recomputing them
// otherwise. All chunks are classified in one batched forward
// (PredictContentBatch), which amortizes kernel dispatch and classifier
// overhead across chunks. Columns already degraded by s3 are skipped; when
// the deadline is near, the remaining columns degrade too — with the
// rule-based detector over their already-fetched content as a cheap stand-in
// for the content tower.
func (j *tableJob) s4InferContent(ctx context.Context) error {
	var pending []int
	for _, g := range j.uncertain {
		if !j.res.Columns[g].Degraded {
			pending = append(pending, g)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	opts := j.d.Opts
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !opts.DisableDegradation {
		if reason, ok := deadlineNear(ctx, opts.DeadlineMargin); ok {
			j.degradeWithRules(pending, reason, true)
			return nil
		}
	} else if err := ctx.Err(); err != nil {
		return err
	}
	pendingSet := make(map[int]bool, len(pending))
	for _, g := range pending {
		pendingSet[g] = true
	}
	applyRows := func(globals []int, rows [][]float64) {
		for slot, g := range globals {
			cr := &j.res.Columns[g]
			cr.Phase = 2
			cr.Probs = rows[slot]
			cr.Admitted = admitted(j.model, rows[slot], opts.AdmitThreshold)
		}
	}
	var reqs []adtd.ContentRequest
	var globalsPerReq [][]int
	var keysPerReq []string
	for ci, chunk := range j.chunks {
		var localCols []int
		var globals []int
		for local := range chunk.Columns {
			if pendingSet[j.offsets[ci]+local] {
				localCols = append(localCols, local)
				globals = append(globals, j.offsets[ci]+local)
			}
		}
		if len(localCols) == 0 {
			continue
		}
		// Result-cache fast path: the key hashes the chunk's metadata AND
		// the scanned values, so changed table content yields a different
		// key and stale memoized answers simply never resolve again.
		var rkey string
		if j.d.results.Enabled() {
			rkey = j.d.contentResultKey(j.model, chunk, localCols, opts.CellsPerColumn)
			if rows, ok := j.d.results.Get(rkey); ok && len(rows) == len(globals) {
				applyRows(globals, rows)
				continue
			}
		}
		// A nil Menc (cache disabled or evicted) is re-encoded inside
		// contentForward.
		menc := j.d.cache.Get(j.d.cacheKey(j.model, j.dbName, j.table, ci))
		reqs = append(reqs, adtd.ContentRequest{Menc: menc, Table: chunk, Cols: localCols})
		globalsPerReq = append(globalsPerReq, globals)
		keysPerReq = append(keysPerReq, rkey)
	}
	if len(reqs) == 0 {
		return nil
	}
	batch, err := j.contentForward(reqs)
	if err != nil {
		if opts.DisableDegradation {
			return err
		}
		// The columns keep their Phase-1 answer, sharpened by the rules over
		// the already-fetched content.
		j.degradeWithRules(pending, "content inference failed: "+err.Error(), false)
		return nil
	}
	for r, globals := range globalsPerReq {
		applyRows(globals, batch[r])
		if keysPerReq[r] != "" {
			// Memoize only full successes: degraded and error paths never
			// reach here, so cached entries are always clean answers.
			j.d.results.Put(keysPerReq[r], batch[r])
		}
	}
	return nil
}

// contentForward runs the table's one Phase-2 forward over its chunks, first
// re-encoding the metadata of any chunk whose latents were not cached: the
// duplicate metadata-tower computation the latent cache exists to avoid
// (§4.2.2). The fresh encoding is released by the batch call; cached
// encodings are graph-free views and survive it. A panic inside the model (a
// corrupt latent, a kernel bug) comes back as an error, so s4 degrades this
// table's columns instead of the panic killing a scheduler worker goroutine
// and with it the process.
func (j *tableJob) contentForward(reqs []adtd.ContentRequest) (batch [][][]float64, err error) {
	defer recoverForward("content", &err)
	for i, r := range reqs {
		if r.Menc == nil {
			reqs[i].Menc = j.model.EncodeMetadata(j.model.Encoder().BuildMetaInput(r.Table, j.d.Opts.UseHistogram))
		}
	}
	if j.fwd != nil {
		j.fwd.Add(1)
	}
	return j.model.PredictContentBatch(reqs, j.d.Opts.CellsPerColumn), nil
}

// metaForward runs Phase 1's forward over one chunk. A panic inside it comes
// back as an error, as contentForward's does; s2 fails the table with it, as
// there is no Phase-1 answer to degrade to.
func (j *tableJob) metaForward(chunk *metafeat.TableInfo) (menc *adtd.MetaEncoding, probs [][]float64, err error) {
	defer recoverForward("metadata", &err)
	menc, probs = j.model.PredictMeta(chunk, j.d.Opts.UseHistogram)
	return menc, probs, nil
}

// recoverForward, deferred by a forward, turns its panic into *err and
// counts it in taste_detector_forward_panics_total.
func recoverForward(kind string, err *error) {
	if r := recover(); r != nil {
		forwardPanicsTotal.Inc()
		*err = fmt.Errorf("core: %s forward panic: %v", kind, r)
	}
}

// admitted returns the sorted type names with probability ≥ threshold,
// excluding the background type. Names resolve against the request's model,
// whose type space indexed the probability row.
func admitted(m *adtd.Model, probs []float64, threshold float64) []string {
	var out []string
	for i, p := range probs {
		if i == 0 {
			continue // background type is never reported
		}
		if p >= threshold {
			out = append(out, m.Types.Name(i))
		}
	}
	sort.Strings(out)
	return out
}

// isUncertain implements Definition 3.2 over all types in S.
func isUncertain(probs []float64, alpha, beta float64) bool {
	for _, p := range probs {
		if p > alpha && p < beta {
			return true
		}
	}
	return false
}

// stages exposes the job's four ordered stages for the scheduler, each
// wrapped with its duration histogram and (when the request is traced) a
// span named "s<N>:<table>". Under a prefetcher the two prep stages are
// gated on the storage read they consume (s1 on an ANALYZE, s3 on a scan),
// so the scheduler parks the table — not a worker — while the read is on the
// wire, and every stage's duration feeds the prefetcher's depth estimate.
func (j *tableJob) stages() []pipeline.Stage {
	raw := []pipeline.Stage{
		{Kind: pipeline.Prep, Name: j.table + "/p1-prep", Run: j.s1PrepMetadata},
		{Kind: pipeline.Infer, Name: j.table + "/p1-infer", Run: j.s2InferMetadata},
		{Kind: pipeline.Prep, Name: j.table + "/p2-prep", Run: j.s3PrepContent},
		{Kind: pipeline.Infer, Name: j.table + "/p2-infer", Run: j.s4InferContent},
	}
	var busy func(stage int, d time.Duration)
	if pf := j.pf; pf != nil {
		raw[0].Ready = func() <-chan struct{} { return pf.ready(analyzeRead, j.table) }
		raw[2].Ready = func() <-chan struct{} { return pf.ready(scanRead, j.table) }
		busy = pf.observeBusy
	}
	for i := range raw {
		raw[i] = instrumentStage(i, j.table, raw[i], busy)
	}
	return raw
}

// DetectTable runs end-to-end detection for one table over an existing
// connection. A nil ctx means context.Background().
func (d *Detector) DetectTable(ctx context.Context, conn *simdb.Conn, dbName, table string) (*TableResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &tableJob{d: d, model: d.requestModel(ctx), conn: conn, dbName: dbName, table: table}
	for _, st := range j.stages() {
		if err := st.Run(ctx); err != nil {
			// Salvage a deadline-killed job when Phase 1 already answered.
			if j.res != nil && !d.Opts.DisableDegradation && errors.Is(err, context.DeadlineExceeded) {
				j.degrade(j.uncertain, "deadline exceeded", true)
				j.res.Retries = j.retries
				tablesDetectedTotal.Inc()
				return j.res, nil
			}
			return nil, fmt.Errorf("core: table %s, stage %s: %w", table, st.Name, err)
		}
	}
	j.res.Retries = j.retries
	tablesDetectedTotal.Inc()
	return j.res, nil
}

// Connect opens a connection to dbName under the detector's retry policy:
// a transient connect failure is retried on the same ladder every other
// database operation gets. It returns the retries spent alongside the
// connection so the caller can book them on its request; the caller closes
// the connection.
func (d *Detector) Connect(ctx context.Context, server *simdb.Server, dbName string) (*simdb.Conn, int, error) {
	var conn *simdb.Conn
	retries, err := d.retry(ctx, server.Accounting(), func() error {
		var e error
		conn, e = server.Connect(ctx, dbName)
		return e
	})
	return conn, retries, err
}

// DetectDatabase runs end-to-end detection over every table of a database
// on a connection of its own: connect (retried), DetectDatabaseOn, close.
// One connection serves the whole batch (§5 recommends connection reuse),
// and because the handshake is paid inside the call, Report.Duration is the
// paper's end-to-end time — Fig 4's retrieval time includes it. A caller
// that keeps connections across requests (the service's pool) calls Connect
// and DetectDatabaseOn itself.
func (d *Detector) DetectDatabase(ctx context.Context, server *simdb.Server, dbName string, mode ExecMode) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	_, connSpan := obs.StartSpan(ctx, "connect")
	conn, retries, err := d.Connect(ctx, server, dbName)
	connSpan.End()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rep, err := d.DetectDatabaseOn(ctx, conn, dbName, mode)
	if err != nil {
		return nil, err
	}
	rep.Retries += retries
	rep.Duration = time.Since(start)
	return rep, nil
}

// DetectDatabaseOn runs end-to-end detection over every table of a database
// over an existing connection, the way DetectTable does for one table,
// executing per the given mode. It first reads every table's metadata in one
// information_schema query (SchemaMetadata, retried like any metadata read;
// a failure fails the call), so no table pays a metadata round trip of its
// own. The connection stays open and is the caller's to close or reuse;
// nothing reads from it once the call returns. Per-table failures are
// collected in Report.Errors without aborting the batch; tables whose Phase
// 1 completed before a deadline killed the batch are salvaged with their
// unresolved columns degraded. A nil ctx means context.Background().
func (d *Detector) DetectDatabaseOn(ctx context.Context, conn *simdb.Conn, dbName string, mode ExecMode) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var metas []*simdb.TableMeta
	_, schemaSpan := obs.StartSpan(ctx, "schema_metadata")
	batchRetries, err := d.retry(ctx, conn.Accounting(), func() error {
		var e error
		metas, e = conn.SchemaMetadata(ctx)
		return e
	})
	schemaSpan.End()
	if err != nil {
		return nil, err
	}
	schemaRead := time.Since(start)

	cs0 := d.cache.Stats()
	// One model for the whole batch: every table of the request is answered
	// by the same weights, however long the batch runs across swaps.
	model := d.requestModel(ctx)
	mode = mode.withDefaults(d.Opts)
	var fwd atomic.Int64
	var pf *prefetcher
	if mode.Pipelined {
		pf = newPrefetcher(ctx, d, conn, metas, mode.Workers, mode.PrefetchBytes, schemaRead)
	}
	jobs := make([]*pipeline.Job, len(metas))
	tjobs := make([]*tableJob, len(metas))
	for i, tm := range metas {
		tjobs[i] = &tableJob{d: d, model: model, conn: conn, dbName: dbName, table: tm.Name, meta: tm, pf: pf, fwd: &fwd}
		jobs[i] = &pipeline.Job{ID: tm.Name, Stages: tjobs[i].stages()}
	}
	sched := pipeline.Scheduler{Pipelined: mode.Pipelined, Workers: mode.Workers}
	stats, err := sched.RunStats(ctx, jobs)
	if pf != nil {
		// Drain before assembling the report: close waits for in-flight
		// prefetches, so returning from here is a no-leak barrier even on
		// cancellation, and wasted reads land in the retry ledger below.
		pf.close()
	}
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Duration: time.Since(start), Retries: batchRetries,
		ContentForwards: int(fwd.Load()),
		Steals:          stats.Steals, StolenStages: stats.Stolen,
	}
	if pf != nil {
		rep.PrefetchHits, rep.PrefetchWasted, rep.PrefetchSkipped = pf.hits, pf.waste, pf.skipped
		rep.Retries += pf.wastedRetries
	}
	for i, j := range jobs {
		tj := tjobs[i]
		// Retries spent on a table count even when the table ultimately
		// failed — the server-side ledger saw them too.
		rep.Retries += tj.retries
		if j.Err != nil {
			if tj.res != nil && !d.Opts.DisableDegradation && errors.Is(j.Err, context.DeadlineExceeded) {
				// Phase 1 finished before the deadline: keep the table,
				// degrading everything Phase 2 never reached.
				tj.degrade(tj.uncertain, "deadline exceeded before phase 2", true)
			} else {
				rep.Errors = append(rep.Errors, fmt.Errorf("table %s: %w", j.ID, j.Err))
				continue
			}
		}
		tr := tj.res
		tr.Retries = tj.retries
		tablesDetectedTotal.Inc()
		rep.Tables = append(rep.Tables, tr)
		rep.TotalColumns += len(tr.Columns)
		rep.ScannedColumns += tr.ScannedColumns
		for _, c := range tr.Columns {
			if c.Uncertain {
				rep.UncertainColumns++
			}
			if c.Degraded {
				rep.DegradedColumns++
			}
		}
	}
	cs1 := d.cache.Stats()
	rep.CacheHits = int(cs1.Hits - cs0.Hits)
	rep.CacheMisses = int(cs1.Misses - cs0.Misses)
	return rep, nil
}

// Feedback records user corrections and immediately applies a lightweight
// online update of the classifier heads (§8 future work). table must carry
// the column's metadata; content values are optional.
func (d *Detector) Feedback(table *metafeat.TableInfo, column int, labels []string) error {
	if column < 0 || column >= len(table.Columns) {
		return fmt.Errorf("core: column index %d out of range", column)
	}
	ex := adtd.FeedbackExample{Table: table, Column: column, Labels: labels}
	d.mu.Lock()
	d.feedback = append(d.feedback, ex)
	d.mu.Unlock()
	return d.Model().ApplyFeedback([]adtd.FeedbackExample{ex}, 0.02, 5)
}

// FeedbackLog returns all recorded corrections.
func (d *Detector) FeedbackLog() []adtd.FeedbackExample {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]adtd.FeedbackExample(nil), d.feedback...)
}

// RegisterTypes extends the detector's type domain with user-defined
// semantic types (§8): the registry entries drive future corpus generation
// and the model's classifier heads grow in place.
func (d *Detector) RegisterTypes(reg *corpus.Registry, types []*corpus.Type) error {
	var names []string
	for _, t := range types {
		if err := reg.Register(t); err != nil {
			return err
		}
		names = append(names, t.Name)
	}
	d.Model().ExtendTypes(names, 0)
	return nil
}
