package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/registry"
	"repro/internal/simdb"
)

// registryService builds a service around a private copy of the shared
// trained model as training left it (so swap/feedback tests neither change
// the detector other tests share nor see the feedback those tests gave it)
// plus an in-memory model registry.
func registryService(t *testing.T) (*Service, *registry.Registry, *corpus.Dataset) {
	t.Helper()
	testService(t) // ensure the shared model is trained
	var buf bytes.Buffer
	if err := shared.model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := shared.model.Sibling()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	m.SetEval()
	det, err := core.NewDetector(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", shared.ds.Test)
	svc.RegisterTenant("tenantdb", server)
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return svc, reg, shared.ds
}

// TestModelRegistryEndpoints walks the closed loop the registry enables:
// publish the serving weights, adapt them with online feedback (which
// installs an unpublished copy, version 0), publish the variant (which must
// dedup against the base), then hot-swap back to the base, whose published
// object feedback left untouched.
func TestModelRegistryEndpoints(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()

	// Publish the serving weights as version 1.
	rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	var res1 registry.PublishResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res1); err != nil {
		t.Fatal(err)
	}
	if res1.Version != 1 || res1.NewPages != res1.Pages {
		t.Fatalf("first publish must store every page: %+v", res1)
	}
	v1 := svc.detector.Model()

	// Detect responses now carry the serving version.
	rec = doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})
	if rec.Code != http.StatusOK {
		t.Fatalf("detect status %d: %s", rec.Code, rec.Body)
	}
	var dresp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.ModelVersion != 1 {
		t.Fatalf("detect model_version = %d, want 1", dresp.ModelVersion)
	}

	// Online feedback installs an adapted copy of version 1: the copy has no
	// registry version until it is published.
	table := ds.Test[0]
	rec = doJSON(t, h, http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "tenantdb", Table: table.Name, Column: table.Columns[0].Name, Labels: []string{"email"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback status %d: %s", rec.Code, rec.Body)
	}
	if got := svc.ServingVersion(); got != 0 {
		t.Fatalf("serving version after feedback = %d, want 0 (an unpublished copy)", got)
	}

	// Publishing the adapted weights dedups against version 1: feedback only
	// touches the classifier heads, so the encoder pages are shared.
	rec = doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("second publish status %d: %s", rec.Code, rec.Body)
	}
	var res2 registry.PublishResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Version != 2 {
		t.Fatalf("second publish version = %d, want 2", res2.Version)
	}
	if res2.NewPages >= res2.Pages {
		t.Fatalf("fine-tuned publish must share pages with the base: %+v", res2)
	}
	if res2.SharedFrac <= 0 {
		t.Fatalf("shared fraction = %v, want > 0", res2.SharedFrac)
	}

	// The registry listing shows both versions and the serving block.
	rec = doJSON(t, h, http.MethodGet, "/v1/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("models status %d: %s", rec.Code, rec.Body)
	}
	var listing struct {
		Models  map[string][]int `json:"models"`
		Serving ModelBlock       `json:"serving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if got := listing.Models["taste"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("versions = %v, want [1 2]", got)
	}
	if listing.Serving.Version != 2 || listing.Serving.Registry == nil {
		t.Fatalf("serving block = %+v", listing.Serving)
	}
	if listing.Serving.Registry.DedupRatio <= 1 {
		t.Fatalf("dedup ratio = %v, want > 1", listing.Serving.Registry.DedupRatio)
	}

	// Hot-swap back to the base version: the object published as version 1,
	// which feedback never wrote.
	before := svc.detector.Model()
	rec = doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("swap status %d: %s", rec.Code, rec.Body)
	}
	var sw SwapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Version != 1 || sw.OldVersion != 2 || sw.Generation == sw.OldGeneration {
		t.Fatalf("swap response = %+v", sw)
	}
	if got := svc.detector.Model(); got == before || got != v1 {
		t.Fatal("swap back to version 1 did not reinstall its published object")
	}
	if got := svc.ServingVersion(); got != 1 {
		t.Fatalf("serving version after swap = %d, want 1", got)
	}

	// /v1/stats mirrors the model block.
	rec = doJSON(t, h, http.MethodGet, "/v1/stats", nil)
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Model.Version != 1 || stats.Model.Swaps != 1 || stats.Model.Name != "taste" {
		t.Fatalf("stats model block = %+v", stats.Model)
	}

	// Swap with version 0 means "latest".
	rec = doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("swap-latest status %d: %s", rec.Code, rec.Body)
	}
	if got := svc.ServingVersion(); got != 2 {
		t.Fatalf("serving version after swap-latest = %d, want 2", got)
	}
}

// TestModelEndpointsWithoutRegistry: every registry-backed surface must fail
// loudly — not panic, not pretend — when no registry is attached.
func TestModelEndpointsWithoutRegistry(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	if rec := doJSON(t, h, http.MethodGet, "/v1/models", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("models status %d, want 404", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1}); rec.Code != http.StatusBadRequest {
		t.Fatalf("swap status %d, want 400", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("publish status %d, want 400", rec.Code)
	}
	rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name}, ModelVersion: 3,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("detect with model_version status %d, want 400", rec.Code)
	}
}

// TestSwapUnknownVersionLeavesServing: a failed swap (version never
// published) must leave the serving model untouched and report the failure.
func TestSwapUnknownVersionLeavesServing(t *testing.T) {
	svc, reg, _ := registryService(t)
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()
	rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	before := svc.detector.Model()
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 99}); rec.Code != http.StatusNotFound {
		t.Fatalf("swap status %d, want 404: %s", rec.Code, rec.Body)
	}
	if svc.detector.Model() != before {
		t.Fatal("failed swap replaced the serving model")
	}
	if got := svc.ServingVersion(); got != 1 {
		t.Fatalf("serving version = %d, want 1", got)
	}
}

// TestHotSwapUnderDetectLoadConsistency is the acceptance scenario for
// zero-downtime hot-swap, meant to run under -race: /v1/detect traffic is
// hammered while the serving model is swapped back and forth between two
// published versions whose outputs differ. Every response must be byte-equal
// to the reference answer of exactly one version AND carry that version's
// model_version label — a response mixing two models' weights, or labeled
// with one version but computed by the other, fails.
func TestHotSwapUnderDetectLoadConsistency(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()
	ctx := context.Background()

	// Version 1: the serving weights.
	rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	// Version 2: a feedback-adapted variant, built offline so the serving
	// model itself never drifts during the test.
	m2, err := svc.detector.Model().Sibling()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.detector.Model().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	fb := []adtd.FeedbackExample{{Table: info, Column: 0, Labels: []string{"email"}}}
	if err := m2.ApplyFeedback(fb, 0.3, 40); err != nil {
		t.Fatal(err)
	}
	m2.SetEval()
	if _, err := reg.Publish("taste", m2.Types.Names(), m2.Params()); err != nil {
		t.Fatal(err)
	}

	// Reference answers, one per version, via the per-request override.
	table := ds.Test[0].Name
	refJSON := func(version int) string {
		t.Helper()
		rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{
			Database: "tenantdb", Tables: []string{table}, ModelVersion: version,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("reference detect v%d status %d: %s", version, rec.Code, rec.Body)
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ModelVersion != version {
			t.Fatalf("reference detect v%d labeled %d", version, resp.ModelVersion)
		}
		resp.DurationMillis = 0
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	refs := map[int]string{1: refJSON(1), 2: refJSON(2)}
	if refs[1] == refs[2] {
		t.Fatal("the two published versions answer identically; the consistency check would be vacuous")
	}

	// Hammer detects while a swapper flips the serving version.
	const workers, rounds, swapRounds = 4, 12, 24
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{table}})
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
				var resp DetectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err.Error()
					return
				}
				v := resp.ModelVersion
				if v != 1 && v != 2 {
					errs <- "response without a valid model_version"
					return
				}
				resp.DurationMillis = 0
				got, err := json.Marshal(resp)
				if err != nil {
					errs <- err.Error()
					return
				}
				if string(got) != refs[v] {
					errs <- "response labeled v" + string(rune('0'+v)) + " does not match that version's reference answer"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swapRounds; i++ {
			if _, apiErr := svc.Swap(ctx, 1+(i%2)); apiErr != nil {
				errs <- apiErr.Msg
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if got := svc.ModelStats().Swaps; got != swapRounds {
		t.Fatalf("swaps = %d, want %d", got, swapRounds)
	}
}

// TestFeedbackAndSwapUnderDetectLoad interleaves live /v1/feedback and
// /v1/models/swap calls with pipelined and sequential /v1/detect, meant to
// run under -race. A writer cycles feedback f1, feedback f2, swap to v1, so
// the serving model is always v1, v1+f1 or v1+f1+f2. Feedback is
// deterministic: the same sequence on a private copy gives each stage's
// reference answer first. Every detect response must equal, byte for byte,
// the answer of one stage and carry that stage's model_version (1 for v1, 0
// for an unpublished copy): a detect that read weights while feedback
// stepped them, or a swap back to v1 that served adapted weights, fails.
func TestFeedbackAndSwapUnderDetectLoad(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	tables := []string{ds.Test[0].Name, ds.Test[1].Name, ds.Test[2].Name}
	// Each feedback confirms a column's true types.
	var feedbacks []FeedbackRequest
	for _, tb := range ds.Test[:3] {
		c := tb.Columns[len(tb.Columns)-1]
		feedbacks = append(feedbacks, FeedbackRequest{Database: "tenantdb", Table: tb.Name, Column: c.Name, Labels: c.Labels})
	}
	feedback := func(h http.Handler, req FeedbackRequest) string {
		rec := doJSON(t, h, http.MethodPost, "/v1/feedback", req)
		if rec.Code != http.StatusOK {
			return rec.Body.String()
		}
		return ""
	}

	// References: stage k is v1 with the first k feedbacks applied.
	private, _, _ := registryService(t)
	ph := private.Handler()
	var refs []string
	for k := 0; ; k++ {
		refs = append(refs, tablesJSON(t, detectOne(t, ph, DetectRequest{Database: "tenantdb", Tables: tables})))
		if k == len(feedbacks) {
			break
		}
		if msg := feedback(ph, feedbacks[k]); msg != "" {
			t.Fatal(msg)
		}
	}
	if refs[0] == refs[len(refs)-1] {
		t.Fatal("feedback leaves the answers unchanged; the check would be vacuous")
	}
	stageVersion := func(k int) int {
		if k == 0 {
			return 1
		}
		return 0
	}

	const cycles = 3
	stop := make(chan struct{})
	errs := make(chan string, 8)
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(pipelined bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: tables, Pipelined: pipelined})
				var resp DetectResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					errs <- "detect: " + rec.Body.String()
					return
				}
				got := tablesJSON(t, resp)
				matched := false
				for k, ref := range refs {
					matched = matched || (got == ref && resp.ModelVersion == stageVersion(k))
				}
				if !matched {
					errs <- "a detect answer (model_version " + strconv.Itoa(resp.ModelVersion) + ") matches no stage's reference: " + got
					return
				}
				answered.Add(1)
			}
		}(w == 0)
	}
	// Each write waits for two more answers, so every stage serves detects
	// and writes land while detects run.
	settle := func() {
		for n := answered.Load() + 2; answered.Load() < n && len(errs) == 0; {
			time.Sleep(time.Millisecond)
		}
	}
	settle()
	for c := 0; c < cycles; c++ {
		for _, req := range feedbacks {
			if msg := feedback(h, req); msg != "" {
				t.Error(msg)
			}
			settle()
		}
		if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1}); rec.Code != http.StatusOK {
			t.Errorf("swap status %d: %s", rec.Code, rec.Body)
		}
		settle()
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestCacheVersionOneObjectPerVersion: a version keeps the first object
// cached for it (a second, concurrent materialization gets that object
// back), and an object published again carries only its new version, so
// versionOf has one answer.
func TestCacheVersionOneObjectPerVersion(t *testing.T) {
	svc, reg, _ := registryService(t)
	svc.AttachRegistry(reg, "taste")
	a := svc.detector.Model()
	b, err := a.Sibling()
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.cacheVersion(1, a); got != a {
		t.Fatal("the first object cached for a version was not returned")
	}
	if got := svc.cacheVersion(1, b); got != a {
		t.Fatal("a second object for a cached version replaced the first")
	}
	if svc.versionOf(a) != 1 || svc.versionOf(b) != 0 {
		t.Fatalf("versionOf: a=%d b=%d, want 1 and 0", svc.versionOf(a), svc.versionOf(b))
	}
	svc.cacheVersion(2, a)
	if svc.versionOf(a) != 2 || svc.ServingVersion() != 2 {
		t.Fatalf("republished object: versionOf %d, serving version %d, want 2", svc.versionOf(a), svc.ServingVersion())
	}
	if _, ok := svc.verCache[1]; ok || len(svc.verOrder) != 1 {
		t.Fatalf("version 1 still cached for the republished object: order %v", svc.verOrder)
	}
}

// servedTypes lists the serving model's types as GET /v1/types reports them.
func servedTypes(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := doJSON(t, h, http.MethodGet, "/v1/types", nil)
	var body struct {
		Types []string `json:"types"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
		t.Fatalf("types status %d: %s", rec.Code, rec.Body)
	}
	return body.Types
}

// TestRegistryVersionsKeepTheirTypeSpace: a version loads over the type
// space it was published with, whatever the serving model's is. After
// RegisterTypes widens the serving heads, a version published before it
// still answers a pinned detect byte for byte as it did, and a swap to it
// serves its own types; a version published after it serves the registered
// type, on this registry and on one replayed from the journal.
func TestRegistryVersionsKeepTheirTypeSpace(t *testing.T) {
	dir := t.TempDir()
	svc, _, ds := registryService(t)
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()
	req := DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}}

	// taste@1 is the serving weights, published straight to the registry so
	// that the service has not cached it.
	v1 := svc.detector.Model()
	ref := tablesJSON(t, detectOne(t, h, req))
	v1Types := servedTypes(t, h)
	if _, err := reg.Publish("taste", v1.Types.Names(), v1.Params()); err != nil {
		t.Fatal(err)
	}
	const custom = "tenant_tracking_code"
	if err := svc.detector.RegisterTypes(corpus.DefaultRegistry(), []*corpus.Type{{
		Name: custom, Category: "identifier", SQLType: "VARCHAR",
		ColumnNames: []string{"tracking_code"}, Gen: func(r *rand.Rand) string { return "trk" },
	}}); err != nil {
		t.Fatal(err)
	}

	pinned := req
	pinned.ModelVersion = 1
	if got := detectOne(t, h, pinned); got.ModelVersion != 1 || tablesJSON(t, got) != ref {
		t.Fatalf("detect pinned to v1 (model_version %d) answered %s, want %s", got.ModelVersion, tablesJSON(t, got), ref)
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1}); rec.Code != http.StatusOK {
		t.Fatalf("swap to v1 status %d: %s", rec.Code, rec.Body)
	}
	if got := servedTypes(t, h); !slices.Equal(got, v1Types) {
		t.Fatalf("v1 serves types %v, want its own %v", got, v1Types)
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 2}); rec.Code != http.StatusOK {
		t.Fatalf("swap to v2 status %d: %s", rec.Code, rec.Body)
	}
	if !slices.Contains(servedTypes(t, h), custom) {
		t.Fatal("v2, published after the registration, does not serve the registered type")
	}

	// A second process replays the journal: v2 materializes over the type
	// space its manifest recorded, not over the booting model's.
	replayed, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	fresh, _, _ := registryService(t)
	fresh.AttachRegistry(replayed, "taste")
	fh := fresh.Handler()
	if rec := doJSON(t, fh, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 2}); rec.Code != http.StatusOK {
		t.Fatalf("swap to replayed v2 status %d: %s", rec.Code, rec.Body)
	}
	if !slices.Contains(servedTypes(t, fh), custom) {
		t.Fatal("replayed v2 does not serve the registered type")
	}
	if got := detectOne(t, fh, req); got.ModelVersion != 2 {
		t.Fatalf("detect on replayed v2 labeled model_version %d", got.ModelVersion)
	}
}

// TestReplayedUntypedManifestLoadsOverServingTypes: a manifest that records
// no type space, as every manifest did before versions kept theirs, still
// loads after a journal replay, over the serving model's type space, and
// answers as the weights it holds.
func TestReplayedUntypedManifestLoadsOverServingTypes(t *testing.T) {
	dir := t.TempDir()
	svc, _, ds := registryService(t)
	w, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Publish("taste", nil, svc.detector.Model().Params()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if man, err := reg.GetManifest("taste", 1); err != nil || man.Types != nil {
		t.Fatalf("replayed manifest: %v, types %v; want none", err, man)
	}
	svc.AttachRegistry(reg, "taste")
	h := svc.Handler()
	req := DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}}
	ref := tablesJSON(t, detectOne(t, h, req))
	serving := svc.detector.Model()
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1}); rec.Code != http.StatusOK {
		t.Fatalf("swap status %d: %s", rec.Code, rec.Body)
	}
	if got := svc.detector.Model(); got == serving || got.Types != serving.Types {
		t.Fatal("an untyped version did not load as a new model over the serving type space")
	}
	if got := detectOne(t, h, req); got.ModelVersion != 1 || tablesJSON(t, got) != ref {
		t.Fatalf("untyped v1 (model_version %d) answered %s, want %s", got.ModelVersion, tablesJSON(t, got), ref)
	}
}
