package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/registry"
	"repro/internal/simdb"
	"repro/internal/tokenizer"
)

// registryService builds a service around a private copy of the shared
// trained model as training left it (so swap tests never change the
// detector other tests share) plus a model registry in a temporary
// directory.
func registryService(t *testing.T) (*Service, *registry.Registry, *corpus.Dataset) {
	t.Helper()
	testService(t) // ensure the shared model is trained
	svc := tenantService(t, fileTwin(t, shared.det.Model()), shared.ds.Test)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return svc, reg, shared.ds
}

// tenantService serves m over a zero-latency tenant "tenantdb" holding
// tables.
func tenantService(t *testing.T, m *adtd.Model, tables []*corpus.Table) *Service {
	t.Helper()
	det, err := core.NewDetector(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", tables)
	svc.RegisterTenant("tenantdb", server)
	return svc
}

// fileTwin returns a model of its own (own parameters, own generation)
// holding m's description and weights: m written as a model file and read
// back.
func fileTwin(t *testing.T, m *adtd.Model) *adtd.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := adtd.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	twin.SetEval()
	return twin
}

// headVariant returns a model of its own holding m's weights with the
// classifier heads' output biases raised by 0.5: every probability moves, no
// encoder page does.
func headVariant(t *testing.T, m *adtd.Model) *adtd.Model {
	t.Helper()
	v := fileTwin(t, m)
	for _, b := range [][]float64{v.MetaCls.Out.B.Data, v.ContCls.Out.B.Data} {
		for i := range b {
			b[i] += 0.5
		}
	}
	return v
}

// TestModelRegistryEndpoints walks the loop the registry enables: publish
// the serving weights, install a head-only variant (an unpublished model,
// version 0), publish it, then hot-swap back to the base, whose published
// object the variant never wrote.
func TestModelRegistryEndpoints(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, 0)
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
	if res1.Version != 1 {
		t.Fatalf("first publish: %+v, want version 1", res1)
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

	// The variant has no registry version until it is published.
	svc.detector.SwapModel(headVariant(t, v1))
	if got := svc.ServingVersion(); got != 0 {
		t.Fatalf("serving version of the variant = %d, want 0 (unpublished)", got)
	}

	// Publishing the variant makes it version 2.
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

	// The registry listing shows both versions and the serving block.
	rec = doJSON(t, h, http.MethodGet, "/v1/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("models status %d: %s", rec.Code, rec.Body)
	}
	var listing struct {
		Versions []int      `json:"versions"`
		Serving  ModelBlock `json:"serving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if got := listing.Versions; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("versions = %v, want [1 2]", got)
	}
	if listing.Serving.Version != 2 || listing.Serving.Registry == nil {
		t.Fatalf("serving block = %+v", listing.Serving)
	}
	if st := listing.Serving.Registry; st.Versions != 2 || st.StoredBytes <= 0 {
		t.Fatalf("registry block = %+v, want 2 versions and their bytes", st)
	}

	// Hot-swap back to the base version: the object published as version 1.
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
	if stats.Model.Version != 1 || stats.Model.Swaps != 1 {
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
	svc.AttachRegistry(reg, 0)
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

// TestSwapToCorruptVersionLeavesServing: a version whose file fails its
// hash is refused, with a 500 naming the verification, by a swap and by a
// pinned request; the serving model stays as it was, and a swap to the
// intact version still succeeds.
func TestSwapToCorruptVersionLeavesServing(t *testing.T) {
	dir := t.TempDir()
	svc, _, ds := registryService(t)
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachRegistry(reg, 0)
	h := svc.Handler()
	for range 2 {
		if rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{}); rec.Code != http.StatusOK {
			t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
		}
	}
	path := filepath.Join(dir, "1.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	serving := svc.detector.Model()
	rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "failed verification") {
		t.Fatalf("swap to a corrupt version: status %d %s, want 500 naming the verification", rec.Code, rec.Body)
	}
	rec = doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}, ModelVersion: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("detect pinned to a corrupt version: status %d %s, want 500", rec.Code, rec.Body)
	}
	if svc.detector.Model() != serving || svc.ServingVersion() != 2 {
		t.Fatalf("a refused swap changed serving: version %d", svc.ServingVersion())
	}
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 2}); rec.Code != http.StatusOK {
		t.Fatalf("swap to the intact version: status %d %s", rec.Code, rec.Body)
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
	svc.AttachRegistry(reg, 0)
	h := svc.Handler()
	ctx := context.Background()

	// Version 1: the serving weights.
	rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	// Version 2: a head-only variant, built offline so the serving model
	// itself never drifts during the test.
	if _, err := reg.Publish(headVariant(t, svc.detector.Model()).WriteModel); err != nil {
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

// TestSwapModelUnderDetectLoad interleaves in-process SwapModel calls that
// install an unpublished variant with /v1/models/swap calls back to the
// published v1, under pipelined and sequential /v1/detect, meant to run
// under -race. The serving model is always v1 or the variant. Every detect
// response must equal, byte for byte, one of the two models' reference
// answers and carry that model's model_version (1 for v1, 0 for the
// unpublished variant): a detect that mixed the two models' weights, or a
// response labeled with one model but computed by the other, fails.
func TestSwapModelUnderDetectLoad(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, 0)
	h := svc.Handler()
	if rec := doJSON(t, h, http.MethodPost, "/v1/models/publish", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	tables := []string{ds.Test[0].Name, ds.Test[1].Name, ds.Test[2].Name}
	variant := headVariant(t, svc.detector.Model())

	// References: stage 0 is v1, stage 1 the variant.
	refs := []string{tablesJSON(t, detectOne(t, h, DetectRequest{Database: "tenantdb", Tables: tables}))}
	private, _, _ := registryService(t)
	private.detector.SwapModel(variant)
	refs = append(refs, tablesJSON(t, detectOne(t, private.Handler(), DetectRequest{Database: "tenantdb", Tables: tables})))
	if refs[0] == refs[1] {
		t.Fatal("the variant answers as v1 does; the check would be vacuous")
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
				if !(got == refs[0] && resp.ModelVersion == 1) && !(got == refs[1] && resp.ModelVersion == 0) {
					errs <- "a detect answer (model_version " + strconv.Itoa(resp.ModelVersion) + ") matches neither model's reference: " + got
					return
				}
				answered.Add(1)
			}
		}(w == 0)
	}
	// Each swap waits for two more answers, so both models serve detects
	// and swaps land while detects run.
	settle := func() {
		for n := answered.Load() + 2; answered.Load() < n && len(errs) == 0; {
			time.Sleep(time.Millisecond)
		}
	}
	settle()
	for c := 0; c < cycles; c++ {
		svc.detector.SwapModel(variant)
		settle()
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
	svc.AttachRegistry(reg, 0)
	a := svc.detector.Model()
	b := fileTwin(t, a)
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

// TestPinnedVersionAnswersWithItsOwnVocabulary: a published version is
// read with the vocabulary its file carries, not the serving model's. At
// 24 tables the seed-1 and seed-6 corpora build vocabularies of one size
// but different terms, so weights of one fit the other's shapes: a detect
// pinned to the seed-6 version must answer byte for byte as the seed-6
// model does on its own, and not as its weights over the seed-1
// vocabulary, which answer otherwise.
func TestPinnedVersionAnswersWithItsOwnVocabulary(t *testing.T) {
	vocab := func(seed int64) (*tokenizer.Tokenizer, *corpus.Dataset) {
		ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(24), seed)
		return adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000), ds
	}
	tok1, ds := vocab(1)
	tok6, _ := vocab(6)
	if tok1.VocabSize() != tok6.VocabSize() {
		t.Fatalf("vocabularies of %d and %d terms: the weights would not fit the other's shapes", tok1.VocabSize(), tok6.VocabSize())
	}
	types := adtd.NewTypeSpace(ds.Registry.Names())
	model := func(tok *tokenizer.Tokenizer) *adtd.Model {
		m, err := adtd.New(adtd.ReproScale(), tok, types, 6)
		if err != nil {
			t.Fatal(err)
		}
		// Untrained heads biased to zero put every probability near ½, so
		// the admitted types turn on every token id the towers read.
		m.MetaCls.Out.B.Fill(0)
		m.ContCls.Out.B.Fill(0)
		return m
	}
	serving, version := model(tok1), model(tok6)
	// What the version answered when it was loaded as weights only, over
	// the serving model's vocabulary.
	var weights bytes.Buffer
	if err := version.Save(&weights); err != nil {
		t.Fatal(err)
	}
	mixed := model(tok1)
	if err := mixed.Load(&weights); err != nil {
		t.Fatal(err)
	}

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(version.WriteModel); err != nil {
		t.Fatal(err)
	}
	svc := tenantService(t, serving, ds.Test)
	svc.AttachRegistry(reg, 0)
	req := DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name, ds.Test[1].Name}}
	want := tablesJSON(t, detectOne(t, tenantService(t, version, ds.Test).Handler(), req))
	if tablesJSON(t, detectOne(t, tenantService(t, mixed, ds.Test).Handler(), req)) == want {
		t.Fatal("the version's weights answer alike over either vocabulary; the check would be vacuous")
	}
	req.ModelVersion = 1
	got := detectOne(t, svc.Handler(), req)
	if got.ModelVersion != 1 || tablesJSON(t, got) != want {
		t.Fatalf("detect pinned to version 1 (model_version %d) answered\n%s\nwant the version's own answer\n%s", got.ModelVersion, tablesJSON(t, got), want)
	}
}

// TestWeightsOnlyVersionRefused: a version file holding a bare weights
// stream (what every version file held before model files had a header) is
// refused by name, as a 500, by a swap and by a pinned detect; serving is
// untouched.
func TestWeightsOnlyVersionRefused(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, 0)
	h := svc.Handler()
	if _, err := reg.Publish(svc.detector.Model().Save); err != nil {
		t.Fatal(err)
	}
	serving := svc.detector.Model()
	rec := doJSON(t, h, http.MethodPost, "/v1/models/swap", SwapRequest{Version: 1})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "weights only") {
		t.Fatalf("swap to a weights-only version: status %d %s, want 500 saying the file holds weights only", rec.Code, rec.Body)
	}
	rec = doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}, ModelVersion: 1})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "weights only") {
		t.Fatalf("detect pinned to a weights-only version: status %d %s, want 500", rec.Code, rec.Body)
	}
	if svc.detector.Model() != serving || svc.ModelStats().Swaps != 0 {
		t.Fatal("a refused version changed serving")
	}
}
