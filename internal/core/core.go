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
	// did not answer.
	ContentForwards int
	// Skipped names the tables the deadline caught before Phase 1 finished;
	// one summary error in Errors counts them.
	Skipped []string
	Errors  []error
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

// tableJob carries per-table state across the four stages. The model is
// captured once at job creation: all four stages (and their cache keys) use
// the same weights even if the detector hot-swaps mid-request.
type tableJob struct {
	d     *Detector
	model *adtd.Model
	conn  *simdb.Conn
	table string
	// meta is the table's information_schema view from the batch's schema
	// read.
	meta *simdb.TableMeta
	// pipelined marks a job of a pipelined detect, whose reads
	// taste_pipeline_prefetch_total counts.
	pipelined bool
	info      *metafeat.TableInfo
	chunks    []*metafeat.TableInfo
	offsets   []int // global index of each chunk's first column
	// keys[i] is chunk i's one identity, its content key (metaResultKey),
	// framed by s2 over the metadata alone. It names the chunk's Phase-1
	// result and its latents; s4 reads it back because by then s3 has
	// filled in values the latents never saw.
	keys []string
	// p1Probs[i] is Phase 1's probability row for global column i.
	p1Probs   [][]float64
	uncertain []int // global indices of uncertain columns
	retries   int   // backoff retries spent on this table
	forwards  int   // Phase-2 content forwards run for this table
	// latentHits and latentMisses count s4's latent-tier lookups.
	latentHits, latentMisses int
	res                      *TableResult
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
// cache, and classifies columns into certain/uncertain. Phase 1 has finished
// once j.res is set, which is the stage's last step: a panic anywhere before
// it leaves no half-built table for DetectDatabaseOn to salvage.
func (j *tableJob) s2InferMetadata(context.Context) error {
	opts := j.d.Opts
	// Chunks cover the columns consecutively, so appending per chunk keeps
	// p1Probs indexed by global column position.
	for _, chunk := range j.chunks {
		// One key per chunk, the hash of its metadata: it names the chunk's
		// Phase-1 result, so a repeat detect over unchanged metadata skips
		// the metadata tower, and its latents, so those s4 finds were
		// encoded from this metadata and never another version's. It is
		// computed even with both tiers off: a disabled latent tier still
		// counts s4's misses.
		key := j.d.metaResultKey(j.model, chunk)
		j.keys = append(j.keys, key)
		if j.d.results.Enabled() {
			if probs, ok := j.d.results.Get(key); ok {
				j.p1Probs = append(j.p1Probs, probs...)
				continue
			}
		}
		menc, probs := j.model.PredictMeta(chunk, opts.UseHistogram)
		if !j.d.cache.Put(key, menc) {
			// Not consumed (disabled, oversized, or an equal entry already
			// cached): the fresh graph goes back to the tensor arena.
			menc.Release()
		}
		j.d.results.Put(key, probs)
		j.p1Probs = append(j.p1Probs, probs...)
	}
	res := &TableResult{Table: j.table}
	for global, row := range j.p1Probs {
		col := j.info.Columns[global]
		cr := ColumnResult{Table: j.table, Column: col.Name, Phase: 1, Probs: row}
		cr.Admitted = admitted(j.model, row, opts.Beta)
		if !opts.P2Disabled() && isUncertain(row, opts.Alpha, opts.Beta) {
			cr.Uncertain = true
			j.uncertain = append(j.uncertain, global)
		}
		res.Columns = append(res.Columns, cr)
	}
	j.res = res
	return nil
}

// degradeWithRules marks the uncertain columns Phase 2 did not resolve as
// degraded with the reason. Each keeps its Phase-1 answer; where s3 fetched
// its content, the rule-based detector (regex/dictionary validators) runs
// over the values and its hits are merged in — cheaper than the content
// tower by orders of magnitude, so it fits inside a dying deadline.
func (j *tableJob) degradeWithRules(reason string, deadline bool) {
	n := 0
	for _, g := range j.uncertain {
		cr := &j.res.Columns[g]
		if cr.Phase == 2 {
			continue
		}
		if vals := j.info.Columns[g].Values; len(vals) > 0 {
			cr.Admitted = mergeTypes(cr.Admitted, j.d.ruleFallback(j.model, vals))
		}
		cr.Degraded = true
		cr.DegradeReason = reason
		n++
	}
	j.d.noteDegraded(n, deadline)
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
// columns are never scanned, and neither is any column when the deadline is
// too near for Phase 2: the check comes before the scan, so the tenant
// exposes no content Phase 2 will not use. Transient scan failures are
// retried with backoff; a scan that still fails, or the deadline, is the
// stage's error, on which DetectDatabaseOn degrades the columns.
func (j *tableJob) s3PrepContent(ctx context.Context) error {
	if len(j.uncertain) == 0 {
		return nil
	}
	if err := j.d.phase2Deadline(ctx); err != nil {
		return err
	}
	opts := j.d.Opts
	names := make([]string, len(j.uncertain))
	for i, g := range j.uncertain {
		names[i] = j.info.Columns[g].Name
	}
	j.countRead(scanReads)
	var content map[string][]string
	n, err := j.d.retry(ctx, j.conn.Accounting(), func() error {
		var e error
		content, e = j.conn.ScanColumns(ctx, j.table, names, simdb.ScanOptions{
			Strategy: opts.Strategy,
			Rows:     opts.RowsToRead,
			Seed:     opts.ScanSeed,
		})
		return e
	})
	j.retries += n
	if err != nil {
		return fmt.Errorf("content scan failed: %w", err)
	}
	for _, g := range j.uncertain {
		j.info.Columns[g].Values = content[j.info.Columns[g].Name]
		j.res.Columns[g].Scanned = true
	}
	j.res.ScannedColumns = len(j.uncertain)
	return nil
}

// s4InferContent runs Phase 2 over the table's uncertain columns, reusing
// cached metadata latents when available and recomputing them otherwise.
// All chunks are classified in one batched forward (PredictContentBatch),
// which amortizes kernel dispatch and classifier overhead across chunks. A
// deadline too near to start is the stage's error, as is a panic in the
// forward (the scheduler recovers it); on either, DetectDatabaseOn degrades
// the columns with the rules over the content s3 fetched.
func (j *tableJob) s4InferContent(ctx context.Context) error {
	if len(j.uncertain) == 0 {
		return nil
	}
	if err := j.d.phase2Deadline(ctx); err != nil {
		return err
	}
	opts := j.d.Opts
	pendingSet := make(map[int]bool, len(j.uncertain))
	for _, g := range j.uncertain {
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
		menc := j.d.cache.Get(j.keys[ci])
		if menc != nil {
			j.latentHits++
		} else {
			if j.d.cache.Enabled() {
				j.latentMisses++
			}
			// Latents not cached (tier disabled or evicted): re-encode the
			// chunk's metadata, the duplicate metadata-tower computation the
			// latent cache exists to avoid (§4.2.2). The batch call releases
			// this fresh encoding; cached ones are graph-free views and
			// survive it.
			menc = j.model.EncodeMetadata(j.model.Encoder().BuildMetaInput(chunk, opts.UseHistogram))
		}
		reqs = append(reqs, adtd.ContentRequest{Menc: menc, Table: chunk, Cols: localCols})
		globalsPerReq = append(globalsPerReq, globals)
		keysPerReq = append(keysPerReq, rkey)
	}
	if len(reqs) == 0 {
		return nil
	}
	j.forwards++
	batch := j.model.PredictContentBatch(reqs, opts.CellsPerColumn)
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
// span named "s<N>:<table>". The scheduler reports a stage's panic as
// "<Name> panic: …". The stages that read storage are Prep, which the
// pipelined scheduler runs without a token: s3 (the content scan) and
// s1 when it runs ANALYZE. Without one, s1 only unwraps the schema read's
// metadata, CPU work that takes a token like any Infer stage.
func (j *tableJob) stages() []pipeline.Stage {
	s1 := pipeline.Infer
	if j.d.needsAnalyze(j.meta) {
		s1 = pipeline.Prep
	}
	raw := []pipeline.Stage{
		{Kind: s1, Name: "metadata prep", Run: j.s1PrepMetadata},
		{Kind: pipeline.Infer, Name: "metadata forward", Run: j.s2InferMetadata},
		{Kind: pipeline.Prep, Name: "content scan", Run: j.s3PrepContent},
		{Kind: pipeline.Infer, Name: "content forward", Run: j.s4InferContent},
	}
	for i := range raw {
		raw[i] = instrumentStage(i, j.table, raw[i])
	}
	return raw
}

// countRead counts one read of a pipelined detect's job.
func (j *tableJob) countRead(c *obs.Counter) {
	if j.pipelined {
		c.Inc()
	}
}

// DetectTable runs end-to-end detection for one table over an existing
// connection: DetectDatabaseOn with the one name, sequentially. A table the
// detect could not answer (an unknown name, a deadline before Phase 1, a
// failed or cancelled stage) comes back as the report's error. A nil ctx means
// context.Background().
func (d *Detector) DetectTable(ctx context.Context, conn *simdb.Conn, dbName, table string) (*TableResult, error) {
	rep, err := d.DetectDatabaseOn(ctx, conn, dbName, []string{table}, SequentialMode)
	if err != nil {
		return nil, err
	}
	if len(rep.Tables) == 0 {
		return nil, rep.Errors[0]
	}
	return rep.Tables[0], nil
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
	rep, err := d.DetectDatabaseOn(ctx, conn, dbName, nil, mode)
	if err != nil {
		return nil, err
	}
	rep.Retries += retries
	rep.Duration = time.Since(start)
	return rep, nil
}

// DetectDatabaseOn runs end-to-end detection over an existing connection,
// executing per the given mode: over every table of the database when
// tables is empty, else over the named tables in request order. Every detect
// runs through here. It first reads the tables' metadata in one
// information_schema query (SchemaMetadata, retried like any metadata read;
// a failure fails the call), so no table pays a metadata round trip of its
// own. The connection stays open and is the caller's to close or reuse;
// nothing reads from it once the call returns. One table never aborts the
// batch: Report.settle ends each table exactly once, and a name the
// database does not have is one error in Report.Errors. A nil ctx means
// context.Background().
func (d *Detector) DetectDatabaseOn(ctx context.Context, conn *simdb.Conn, dbName string, tables []string, mode ExecMode) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var metas []*simdb.TableMeta
	_, schemaSpan := obs.StartSpan(ctx, "schema_metadata")
	batchRetries, err := d.retry(ctx, conn.Accounting(), func() error {
		var e error
		metas, e = conn.SchemaMetadata(ctx, tables...)
		return e
	})
	schemaSpan.End()
	if err != nil {
		return nil, err
	}
	rep := &Report{Retries: batchRetries}
	if len(metas) < len(tables) {
		rep.Errors = unknownTables(dbName, tables, metas)
	}

	// One model for the whole batch: every table of the request is answered
	// by the same weights, however long the batch runs across swaps.
	model := d.requestModel(ctx)
	jobs := make([]*pipeline.Job, len(metas))
	tjobs := make([]tableJob, len(metas))
	for i, tm := range metas {
		tjobs[i] = tableJob{d: d, model: model, conn: conn, table: tm.Name, meta: tm, pipelined: mode.Pipelined}
		jobs[i] = &pipeline.Job{ID: tm.Name, Stages: tjobs[i].stages()}
	}
	pipeline.Scheduler{Pipelined: mode.Pipelined}.Run(ctx, jobs)
	for i, j := range jobs {
		rep.settle(&tjobs[i], j.Err)
	}
	if len(rep.Skipped) > 0 {
		rep.Errors = append(rep.Errors, fmt.Errorf("%w: skipped %d tables", context.DeadlineExceeded, len(rep.Skipped)))
	}
	rep.Duration = time.Since(start)
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
