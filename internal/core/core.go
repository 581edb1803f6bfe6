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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adtd"
	"repro/internal/cache"
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

// Detector is the Taste detection service: a trained ADTD model (or a
// baseline classifier, NewBaselineDetector) plus the framework
// configuration. It is safe for concurrent use once the model is
// in eval mode.
//
// The model is held behind an atomic pointer (RCU style): every request
// captures the pointer exactly once when its table job is created and uses
// that model for all four stages, so SwapModel never tears a request across
// two weight sets. Caches need no flushing on swap — every cache key embeds
// the model's process-unique generation.
type Detector struct {
	model atomic.Pointer[adtd.Model]
	// baseline is the classifier of a NewBaselineDetector, which runs it in
	// place of the model; nil on an ADTD detector.
	baseline classifier
	Opts     Options

	cache   *cache.Latent
	results *cache.Result
	rules   *ruledet.Detector

	retrier *retry.Retrier

	faultMu sync.Mutex
	stats   FaultStats
}

// NewDetector creates a detector over a trained model. The model is
// switched to eval mode.
func NewDetector(model *adtd.Model, opts Options) (*Detector, error) {
	d, err := newDetector(opts)
	if err != nil {
		return nil, err
	}
	model.SetEval()
	d.model.Store(model)
	return d, nil
}

// NewBaselineDetector creates a detector that runs a single-phase content
// classifier (TURL, Doduo) in place of ADTD, on the same stages, connection
// handling and ExecMode (DESIGN.md §16). With Phase 2 on (α < β), Phase 1
// defers every column, s3 scans them all in one read and Phase 2 predicts
// from their content; with it off (α = β), Phase 1 predicts from the
// metadata alone and nothing is scanned. It never touches the latent or
// result tier, and its Model is nil.
func NewBaselineDetector(m Baseline, opts Options) (*Detector, error) {
	d, err := newDetector(opts)
	if err != nil {
		return nil, err
	}
	d.baseline = baselineClassifier{m}
	return d, nil
}

func newDetector(opts Options) (*Detector, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	latents := cache.NewLatent(opts.CacheBytes, 0)
	latents.SetMetrics(cache.NewTierMetrics(obs.Default, "latent"))
	results := cache.NewResult(opts.ResultCacheBytes, 0)
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
// SwapModel is the detector's one model writer and takes no lock: the
// install is one atomic exchange, so of two concurrent swaps the later
// exchange serves and each caller gets back the model it replaced.
func (d *Detector) SwapModel(m *adtd.Model) *adtd.Model {
	m.SetEval()
	return d.model.Swap(m)
}

// classifier returns what a request's inference stages run: the detector's
// baseline, or ADTD on the request's model (Request.Model), else on the
// serving one.
func (d *Detector) classifier(m *adtd.Model) classifier {
	if d.baseline != nil {
		return d.baseline
	}
	if m == nil {
		m = d.model.Load()
	}
	return adtdClassifier{m}
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
	// Scanned reports that s3 read the column's content. It stays set when
	// Phase 2 then degrades the column (the rules ran over that content), so
	// a table's Scanned columns always number its ScannedColumns. It is left
	// out of a result's JSON form, which stays byte-comparable with results
	// rebuilt stage by stage outside core (the benchmark's trace replay);
	// /v1/detect reports it per column as "scanned".
	Scanned bool `json:"-"`
	// Degraded reports that Phase 2 was required but could not run; the
	// answer is Phase 1's (possibly sharpened by the rule-based detector).
	Degraded bool
	// DegradeReason explains a degradation ("content scan failed: …",
	// "deadline imminent", …). Empty unless Degraded.
	DegradeReason string
	// Probs are the deciding phase's probabilities indexed by the model's
	// type space. They are read-only: a row the result tier answered is the
	// tier's own, shared by every later hit, so writing to it would change
	// later answers. Admitted is read-only too (a one-type set is shared).
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
	Retries int
	// CacheHits and CacheMisses count this request's latent-tier lookups
	// in Phase 2, each under the chunk's content key: a hit reused latents
	// encoded from this very metadata (by this request's Phase 1, an
	// earlier request, or another table with identical chunk metadata), a
	// miss re-encoded the chunk's metadata although the tier was enabled.
	CacheHits   int
	CacheMisses int
	// ContentForwards counts the Phase-2 content forwards this request ran:
	// one per table that reached Phase 2 with a chunk the result cache
	// did not answer (a baseline: one per chunk).
	ContentForwards int
	// Skipped names the tables the deadline caught before Phase 1 finished;
	// one summary error in Errors counts them.
	Skipped []string
	Errors  []error

	// b is the working state the report lives in, until Release.
	b *batch
}

// Release hands the report's storage — its TableResults, their columns and
// every table job's buffers — to a later detect, so a server that answers
// one detect after another reuses one detect's storage instead of
// allocating its own. Nothing the report holds may be read after, except
// what was copied out of it before: strings, the columns' Admitted and
// Probs, the errors. Release is optional; a report never released is
// collected like any other value.
func (r *Report) Release() {
	if b := r.b; b != nil {
		r.b = nil
		b.release()
	}
}

// ScannedRatio returns the intrusiveness metric of §6.2.
func (r *Report) ScannedRatio() float64 {
	if r.TotalColumns == 0 {
		return 0
	}
	return float64(r.ScannedColumns) / float64(r.TotalColumns)
}

// ExecMode selects how a batch is executed (§5, DESIGN.md §16). The zero
// ExecMode is SequentialMode.
type ExecMode struct {
	// Pipelined runs every table's stages on a goroutine of its own
	// (Algorithm 1 + DESIGN.md §16), at most GOMAXPROCS inference stages
	// (TP2) at once and reads uncapped; false processes tables sequentially.
	Pipelined bool

	// Deprecated: ignored; kept so bench/ compiles.
	PrepWorkers, InferWorkers int
}

// SequentialMode is the execution mode of the baselines and of "Taste w/o
// pipelining".
var SequentialMode = ExecMode{}

// PipelinedMode returns ExecMode{Pipelined: true}: at most GOMAXPROCS
// inference stages run at once. The paper's §6.3 pools are TP1=TP2=2; here
// reads are not pooled at all and the inference cap is the host's
// (DESIGN.md §16).
func PipelinedMode() ExecMode {
	return ExecMode{Pipelined: true}
}

// AutoMode is PipelinedMode.
//
// Deprecated: use PipelinedMode; kept so bench/ compiles.
func AutoMode() ExecMode {
	return PipelinedMode()
}

// tableJob carries per-table state across the four stages. The classifier
// is captured once at job creation: all four stages (and their cache keys)
// use the same weights even if the detector hot-swaps mid-request. A job
// lives in its detect's batch and keeps its buffers for the batch's next
// detect (drop).
type tableJob struct {
	d     *Detector
	cls   classifier
	conn  *simdb.Conn
	table string
	// meta is the table's information_schema view from the batch's schema
	// read.
	meta *simdb.TableMeta
	// pipelined marks a job of a pipelined detect, whose reads
	// taste_pipeline_prefetch_total counts.
	pipelined bool
	// clock is the job's stage-boundary clock (RunStage): the batch's in a
	// sequential detect, whose jobs run one after another; nil for
	// job.Clock.
	clock *time.Time
	// view holds info and chunks.
	view    metafeat.Scratch
	info    *metafeat.TableInfo
	chunks  []*metafeat.TableInfo
	offsets []int // global index of each chunk's first column
	// keys[i] is chunk i's one identity, its content key (metaResultKey),
	// framed by s2 over the metadata alone. It names the chunk's Phase-1
	// result and its latents; s4 reads it back because by then s3 has
	// filled in values the latents never saw.
	keys []string
	// p1Probs[i] is Phase 1's probability row for global column i; nil
	// defers the column to Phase 2.
	p1Probs   [][]float64
	uncertain []int // global indices of uncertain columns
	retries   int   // backoff retries spent on this table
	forwards  int   // Phase-2 content forwards run for this table
	// latentHits and latentMisses count s4's latent-tier lookups.
	latentHits, latentMisses int
	// res is the table's result once Phase 1 has finished (s2): result,
	// its columns carved from resCols.
	res     *TableResult
	result  TableResult
	resCols []ColumnResult
	// names, scanned and cells are s3's scan: the columns, each column's
	// cells, and their backing array. pending is eachPending's column
	// positions.
	names   []string
	scanned [][]string
	cells   []string
	pending []int
	// job is the scheduler's view of this table (pipelineJob).
	job pipeline.Job
}

// drop empties j for a later detect. It keeps its buffers' storage but
// nothing they or j referred to — the detector, connection and model, the
// table's metadata, rows, cells and result — so a pooled batch keeps neither
// a retired detector's caches nor a tenant's data alive.
func (j *tableJob) drop() {
	clear(j.keys)
	clear(j.p1Probs)
	clear(j.resCols)
	clear(j.names)
	clear(j.scanned)
	clear(j.cells)
	j.view.Clear()
	*j = tableJob{
		view:    j.view,
		offsets: j.offsets[:0], keys: j.keys[:0], p1Probs: j.p1Probs[:0], uncertain: j.uncertain[:0],
		resCols: j.resCols, names: j.names[:0], scanned: j.scanned, cells: j.cells, pending: j.pending[:0],
	}
}

// errDeadlineImminent is a Phase-2 stage's error when too little of the
// request deadline remains to start it.
var errDeadlineImminent = errors.New("deadline imminent")

// phase2Deadline is s3's and s4's one deadline check: with the request
// deadline within DeadlineMargin, or past, Phase 2 is not started and the
// table keeps its Phase-1 answer rather than risk returning nothing at all.
func (d *Detector) phase2Deadline(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d.Opts.DeadlineMargin {
		return errDeadlineImminent
	}
	return nil
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

// s1PrepMetadata takes the table's metadata from the batch's schema read —
// refreshed by ANALYZE, under the retry policy, when histograms need
// statistics it lacks — and builds the chunked table view.
func (j *tableJob) s1PrepMetadata(ctx context.Context) error {
	tm := j.meta
	if j.d.needsAnalyze(tm) {
		j.countRead(analyzeReads)
		n, err := j.d.retry(ctx, j.conn.Accounting(), func() error {
			var e error
			tm, e = j.conn.AnalyzeTable(ctx, j.table, simdb.AnalyzeOptions{})
			return e
		})
		j.retries += n
		if err != nil {
			return err
		}
	}
	j.info = j.view.Set(tm)
	j.chunks = j.view.Split(j.d.Opts.SplitThreshold)
	off := 0
	for _, ch := range j.chunks {
		j.offsets = append(j.offsets, off)
		off += len(ch.Columns)
	}
	return nil
}

// s2InferMetadata runs Phase 1 inference per chunk and classifies columns
// into certain/uncertain; a column the classifier deferred is uncertain.
// Phase 1 has finished once j.res is set, which is the stage's last step: a
// panic anywhere before it leaves no half-built table for Detect to
// salvage.
func (j *tableJob) s2InferMetadata(context.Context) error {
	opts := j.d.Opts
	// Chunks cover the columns consecutively, so appending per chunk keeps
	// p1Probs indexed by global column position.
	for ci := range j.chunks {
		j.p1Probs = append(j.p1Probs, j.cls.phase1(j, ci)...)
	}
	// Phase 1 answers its certain columns here. An uncertain column's
	// Phase-1 admitted set is built only if Phase 2 does not answer it, by
	// degradeWithRules.
	res := &j.result
	*res = TableResult{Table: j.table}
	if n := len(j.p1Probs); n > 0 {
		if cap(j.resCols) < n {
			j.resCols = make([]ColumnResult, n)
		}
		res.Columns = j.resCols[:n:n]
	}
	for global, row := range j.p1Probs {
		cr := &res.Columns[global]
		*cr = ColumnResult{Table: j.table, Column: j.info.Columns[global].Name, Phase: 1, Probs: row}
		if !opts.P2Disabled() && (row == nil || isUncertain(row, opts.Alpha, opts.Beta)) {
			cr.Uncertain = true
			j.uncertain = append(j.uncertain, global)
		} else {
			cr.Admitted = admitted(j.cls.types(), row, opts.Beta)
		}
	}
	j.res = res
	return nil
}

// degradeWithRules marks the uncertain columns Phase 2 did not resolve as
// degraded with the reason. Each keeps its Phase-1 answer, whose admitted
// set s2 left to be built here; where s3 fetched its content, the
// rule-based detector (regex/dictionary validators) runs over the cells s3
// shipped, exactly those the model would have read, and its hits are
// merged in — cheaper than the content tower by orders of magnitude, so it
// fits inside a dying deadline.
func (j *tableJob) degradeWithRules(reason string, deadline bool) {
	n := 0
	for _, g := range j.uncertain {
		cr := &j.res.Columns[g]
		if cr.Phase == 2 {
			continue
		}
		cr.Admitted = admitted(j.cls.types(), cr.Probs, j.d.Opts.Beta)
		if vals := j.info.Columns[g].Values; len(vals) > 0 {
			cr.Admitted = mergeTypes(cr.Admitted, j.d.ruleFallback(j.cls.types(), vals))
		}
		cr.Degraded = true
		cr.DegradeReason = reason
		n++
	}
	j.d.noteDegraded(n, deadline)
}

// ruleFallback runs the rule-based detector over values, keeping only types
// the given type space knows.
func (d *Detector) ruleFallback(types *adtd.TypeSpace, values []string) []string {
	if d.rules == nil {
		return nil
	}
	var out []string
	for _, t := range d.rules.DetectColumn(values) {
		if _, ok := types.Index(t); ok {
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

// scanOptions is the detector's Phase-2 scan: m rows by its strategy, of
// which each column ships only its first n non-empty cells, the ones the
// model reads (adtd.VisibleCells).
func (d *Detector) scanOptions() simdb.ScanOptions {
	return simdb.ScanOptions{
		Strategy: d.Opts.Strategy,
		Rows:     d.Opts.RowsToRead,
		Cells:    d.Opts.CellsPerColumn,
		Seed:     d.Opts.ScanSeed,
	}
}

// s3PrepContent scans the uncertain columns' content (§3.3): of the m rows
// it reads, each column ships only the n cells the model reads. Certain
// columns are never scanned, and neither is any column when the deadline is
// too near for Phase 2: the check comes before the scan, so the tenant
// exposes no content Phase 2 will not use. Transient scan failures are
// retried with backoff; a scan that still fails, or the deadline, is the
// stage's error, on which Detect degrades the columns.
func (j *tableJob) s3PrepContent(ctx context.Context) error {
	if len(j.uncertain) == 0 {
		return nil
	}
	if err := j.d.phase2Deadline(ctx); err != nil {
		return err
	}
	for _, g := range j.uncertain {
		j.names = append(j.names, j.info.Columns[g].Name)
	}
	if cap(j.scanned) < len(j.names) {
		j.scanned = make([][]string, len(j.names))
	}
	scanned := j.scanned[:len(j.names)]
	j.countRead(scanReads)
	n, err := j.d.retry(ctx, j.conn.Accounting(), func() error {
		var e error
		j.cells, e = j.conn.ScanCells(ctx, j.table, j.names, j.d.scanOptions(), scanned, j.cells)
		return e
	})
	j.retries += n
	if err != nil {
		return fmt.Errorf("content scan failed: %w", err)
	}
	for i, g := range j.uncertain {
		j.info.Columns[g].Values = scanned[i]
		j.res.Columns[g].Scanned = true
	}
	j.res.ScannedColumns = len(j.uncertain)
	return nil
}

// s4InferContent runs Phase 2 over the table's uncertain columns. A
// deadline too near to start is the stage's error, as is a panic in the
// forward (the scheduler recovers it); on either, Detect degrades
// the columns with the rules over the content s3 fetched.
func (j *tableJob) s4InferContent(ctx context.Context) error {
	if len(j.uncertain) == 0 {
		return nil
	}
	if err := j.d.phase2Deadline(ctx); err != nil {
		return err
	}
	j.cls.phase2(j)
	return nil
}

// eachPending calls fn for every chunk holding uncertain columns, with the
// chunk's index, those columns' global indices and their positions in the
// chunk. Each chunk's positions are a slice of their own, which fn may keep
// until the detect ends.
func (j *tableJob) eachPending(fn func(ci int, globals, cols []int)) {
	// Sized once, so no chunk's positions move when the next are appended.
	if cap(j.pending) < len(j.uncertain) {
		j.pending = make([]int, 0, len(j.uncertain))
	}
	// uncertain is sorted and chunks cover the columns consecutively, so
	// each chunk's pending columns are the next run of it.
	pending := j.uncertain
	for ci, chunk := range j.chunks {
		end := j.offsets[ci] + len(chunk.Columns)
		k := 0
		for k < len(pending) && pending[k] < end {
			k++
		}
		globals := pending[:k:k]
		pending = pending[k:]
		if len(globals) == 0 {
			continue
		}
		at := len(j.pending)
		for _, g := range globals {
			j.pending = append(j.pending, g-j.offsets[ci])
		}
		fn(ci, globals, j.pending[at:len(j.pending):len(j.pending)])
	}
}

// answer gives the columns globals Phase 2's rows, in order; a nil row
// answers its column with no types.
func (j *tableJob) answer(globals []int, rows [][]float64) {
	for slot, g := range globals {
		cr := &j.res.Columns[g]
		cr.Phase, cr.Probs = 2, rows[slot]
		cr.Admitted = admitted(j.cls.types(), rows[slot], j.d.Opts.AdmitThreshold)
	}
}

// admitted returns the sorted type names with probability ≥ threshold,
// excluding the background type (index 0), or nil when there are none.
// Names resolve against the request's type space, which indexed the
// probability row; a single name is the type space's shared slice of it.
func admitted(types *adtd.TypeSpace, probs []float64, threshold float64) []string {
	n, last := 0, 0
	for i := 1; i < len(probs); i++ {
		if probs[i] >= threshold {
			n, last = n+1, i
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return types.NameSlice(last)
	}
	out := make([]string, 0, n)
	for i, p := range probs[1:] {
		if p >= threshold {
			out = append(out, types.Name(i+1))
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

// tableStages are every table job's four stages by kind and name, shared
// by all jobs; tableJob.RunStage runs them. The stages that read storage
// are Prep, which the pipelined scheduler runs without a token: s3 (the
// content scan) and s1 when it runs ANALYZE (analyzeStages). Without one,
// s1 only unwraps the schema read's metadata, CPU work that takes a token
// like any Infer stage. The scheduler reports a stage's panic as
// "<Name> panic: …".
var (
	tableStages = []pipeline.Stage{
		{Kind: pipeline.Infer, Name: "metadata prep"},
		{Kind: pipeline.Infer, Name: "metadata forward"},
		{Kind: pipeline.Prep, Name: "content scan"},
		{Kind: pipeline.Infer, Name: "content forward"},
	}
	analyzeStages = append([]pipeline.Stage{{Kind: pipeline.Prep, Name: "metadata prep"}}, tableStages[1:]...)
)

// pipelineJob readies the job the scheduler runs for this table, held in
// the tableJob itself: its stages are analyzeStages when s1 runs ANALYZE,
// else tableStages, run by RunStage.
func (j *tableJob) pipelineJob() *pipeline.Job {
	j.job = pipeline.Job{ID: j.table, Stages: tableStages, Runner: j}
	if j.d.needsAnalyze(j.meta) {
		j.job.Stages = analyzeStages
	}
	return &j.job
}

// RunStage runs the job's stage i (pipeline.StageRunner) under a trace
// span "s<N>:<table>" (child of the request trace, when one is active) and
// the stage's duration histogram. They are recorded on the way out of a
// panic too, which the scheduler then recovers. The stage is timed from the
// job's clock, the last stage boundary, to one clock read at its end, which
// becomes the clock: a stage's end is the next stage's start. A clock never
// set is read at the stage's start.
func (j *tableJob) RunStage(ctx context.Context, i int) (err error) {
	// The span name is built only for a traced request.
	var sp *obs.Span
	if obs.FromContext(ctx) != nil {
		ctx, sp = obs.StartSpan(ctx, stageLabels[i]+":"+j.table)
	}
	if j.clock == nil {
		j.clock = &j.job.Clock
	}
	if j.clock.IsZero() {
		*j.clock = time.Now()
	}
	defer func() {
		end := time.Now()
		stageSeconds[i].ObserveDuration(end.Sub(*j.clock))
		*j.clock = end
		if err != nil {
			stageErrorsTotal[i].Inc()
		}
		sp.End()
	}()
	switch i {
	case 0:
		return j.s1PrepMetadata(ctx)
	case 1:
		return j.s2InferMetadata(ctx)
	case 2:
		return j.s3PrepContent(ctx)
	default:
		return j.s4InferContent(ctx)
	}
}

// countRead counts one read of a pipelined detect's job.
func (j *tableJob) countRead(c *obs.Counter) {
	if j.pipelined {
		c.Inc()
	}
}

// DetectTable runs end-to-end detection for one table over an existing
// connection: Detect with the one name, sequentially. A table the
// detect could not answer (an unknown name, a deadline before Phase 1, a
// failed or cancelled stage) comes back as the report's error. A nil ctx means
// context.Background().
func (d *Detector) DetectTable(ctx context.Context, conn *simdb.Conn, dbName, table string) (*TableResult, error) {
	rep, err := d.detect(ctx, Request{Conn: conn, DBName: dbName, Mode: SequentialMode}, []string{table})
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	if len(rep.Tables) == 0 {
		return nil, rep.Errors[0]
	}
	tr := *rep.Tables[0]
	tr.Columns = slices.Clone(tr.Columns)
	return &tr, nil
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
// on a connection of its own: connect (retried), Detect, close.
// One connection serves the whole batch (§5 recommends connection reuse),
// and because the handshake is paid inside the call, Report.Duration is the
// paper's end-to-end time — Fig 4's retrieval time includes it. A caller
// that keeps connections across requests (the service's pool) calls Connect
// and Detect itself.
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
	rep, err := d.Detect(ctx, Request{Conn: conn, DBName: dbName, Mode: mode, Start: start})
	if err != nil {
		return nil, err
	}
	rep.Retries += retries
	return rep, nil
}

// Request is one detect over an open connection: the database, the tables
// and the execution mode, plus what a server that pins models per request
// and keeps its own request clock passes in.
type Request struct {
	Conn   *simdb.Conn
	DBName string
	// Tables names the tables to detect, in request order; empty means every
	// table of the database.
	Tables []string
	Mode   ExecMode
	// Model, when set, answers the request instead of the serving model —
	// the mechanism behind per-request model versions. It encodes with its
	// own tokenizer and answers in its own type space (a registry version
	// is read from its model file, which carries both). Every stage of
	// every table runs on it, so the answer is internally consistent with
	// exactly one model.
	Model *adtd.Model
	// Start is when the request began, a clock read the caller already made;
	// Report.Duration counts from it. Zero reads the clock.
	Start time.Time
}

// batch is one detect's working state: its Report, the schema read and one
// table job per table. Detect takes one from batches and Report.Release
// returns it, so detects that release their reports reuse one another's
// storage.
type batch struct {
	rep   Report
	metas []*simdb.TableMeta
	tjobs []tableJob
	jobs  []*pipeline.Job
	// clock is a sequential detect's stage-boundary clock, which its jobs
	// share: they run one after another.
	clock time.Time
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// release returns b to batches with every table job dropped: a batch in the
// pool refers to nothing a detect left.
func (b *batch) release() {
	clear(b.metas)
	for i := range b.tjobs {
		b.tjobs[i].drop()
	}
	clear(b.jobs)
	clear(b.rep.Tables)
	b.rep = Report{Tables: b.rep.Tables[:0]}
	batches.Put(b)
}

// Detect runs end-to-end detection of req. Every detect runs through here.
// It first reads the tables' metadata in one information_schema query
// (SchemaMetadata, retried like any metadata read; a failure fails the
// call), so no table pays a metadata round trip of its own. The connection
// stays open and is the caller's to close or reuse; nothing reads from it
// once the call returns. One table never aborts the batch: Report.settle
// ends each table exactly once, and a name the database does not have is
// one error in Report.Errors. A nil ctx means context.Background().
//
// A detect reads the clock once at its start (unless req.Start is set) and
// once per stage boundary; Report.Duration ends at the last one.
func (d *Detector) Detect(ctx context.Context, req Request) (*Report, error) {
	return d.detect(ctx, req, req.Tables)
}

// detect is Detect with the table names passed apart from req, whose Tables
// it ignores. Escape analysis treats a struct parameter as one unit, and
// req's connection outlives the call in the table jobs, so a list inside req
// would go to the heap with it; passed alone it stays on its caller's stack
// (DetectTable's one name).
func (d *Detector) detect(ctx context.Context, req Request, tables []string) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := req.Start
	if start.IsZero() {
		start = time.Now()
	}
	b := batches.Get().(*batch)
	_, schemaSpan := obs.StartSpan(ctx, "schema_metadata")
	batchRetries, err := d.retry(ctx, req.Conn.Accounting(), func() error {
		var e error
		b.metas, e = req.Conn.AppendSchemaMetadata(ctx, b.metas[:0], tables...)
		return e
	})
	schemaSpan.End()
	if err != nil {
		b.release()
		return nil, err
	}
	rep := &b.rep
	*rep = Report{Tables: rep.Tables[:0], Retries: batchRetries, b: b}
	if len(b.metas) < len(tables) {
		rep.Errors = unknownTables(req.DBName, tables, b.metas)
	}

	// One classifier for the whole batch: every table of the request is
	// answered by the same weights, however long the batch runs across swaps.
	cls := d.classifier(req.Model)
	b.tjobs, b.jobs = slices.Grow(b.tjobs[:0], len(b.metas))[:len(b.metas)], b.jobs[:0]
	b.clock = time.Now()
	for i, tm := range b.metas {
		tj := &b.tjobs[i]
		tj.d, tj.cls, tj.conn, tj.table, tj.meta, tj.pipelined = d, cls, req.Conn, tm.Name, tm, req.Mode.Pipelined
		job := tj.pipelineJob()
		if req.Mode.Pipelined {
			job.Clock = b.clock
		} else {
			tj.clock = &b.clock
		}
		b.jobs = append(b.jobs, job)
	}
	pipeline.Scheduler{Pipelined: req.Mode.Pipelined}.Run(ctx, b.jobs)
	for i, j := range b.jobs {
		rep.settle(&b.tjobs[i], j.Err)
	}
	if len(rep.Skipped) > 0 {
		rep.Errors = append(rep.Errors, fmt.Errorf("%w: skipped %d tables", context.DeadlineExceeded, len(rep.Skipped)))
	}
	if len(rep.Tables) == 0 {
		rep.Tables = nil
	}
	end := b.clock
	if req.Mode.Pipelined {
		end = time.Now()
	}
	rep.Duration = end.Sub(start)
	return rep, nil
}

// settle is the one place a table ends (DESIGN.md §7), given the error its
// job ended with:
//
//   - Phase 1 not finished (s2 did not complete): Report.Skipped on a
//     deadline, else one error in Report.Errors;
//   - a cancellation: one error — the caller walked away, there is nobody
//     to degrade for;
//   - otherwise the table is answered, and when Phase 2 failed (a scan
//     error, a deadline, a recovered panic) its uncertain columns Phase 2
//     did not resolve are degraded with the error as the reason.
//
// Retries, forwards and lookups spent on a table count whatever its end —
// the server-side ledger saw them too.
func (rep *Report) settle(tj *tableJob, err error) {
	rep.Retries += tj.retries
	rep.ContentForwards += tj.forwards
	rep.CacheHits += tj.latentHits
	rep.CacheMisses += tj.latentMisses
	deadline := errors.Is(err, context.DeadlineExceeded)
	switch {
	case err == nil:
	case tj.res == nil && deadline:
		rep.Skipped = append(rep.Skipped, tj.table)
		return
	case tj.res == nil || errors.Is(err, context.Canceled):
		rep.Errors = append(rep.Errors, fmt.Errorf("table %s: %w", tj.table, err))
		return
	case err == context.DeadlineExceeded:
		// The scheduler abandoned the table between stages.
		tj.degradeWithRules("deadline exceeded before phase 2", true)
	default:
		tj.degradeWithRules(err.Error(), deadline || errors.Is(err, errDeadlineImminent))
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

// unknownTables returns one error per requested name the schema read did not
// return.
func unknownTables(dbName string, tables []string, metas []*simdb.TableMeta) []error {
	var errs []error
	for _, name := range tables {
		if !slices.ContainsFunc(metas, func(tm *simdb.TableMeta) bool { return tm.Name == name }) {
			errs = append(errs, fmt.Errorf("table %s: no such table in database %s", name, dbName))
		}
	}
	return errs
}
