package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/registry"
	"repro/internal/simdb"
)

// registryService builds a service around a private copy of the shared
// trained model (so swap/feedback tests never mutate the detector other
// tests share) plus an in-memory model registry.
func registryService(t *testing.T) (*Service, *registry.Registry, *corpus.Dataset) {
	t.Helper()
	testService(t) // ensure the shared model is trained
	var buf bytes.Buffer
	if err := shared.det.Model().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := shared.det.Model().Sibling()
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
// publish the serving weights, adapt them with online feedback (which must
// drop their registry identity — the weights drifted), publish the variant
// (which must dedup against the base), then hot-swap back to the base.
func TestModelRegistryEndpoints(t *testing.T) {
	svc, reg, ds := registryService(t)
	svc.AttachRegistry(reg, "taste", 0)
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

	// Online feedback mutates the serving weights in place: they no longer
	// match version 1, so the serving version must reset to 0 — otherwise a
	// later swap "back to 1" would silently serve the drifted weights.
	table := ds.Test[0]
	rec = doJSON(t, h, http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "tenantdb", Table: table.Name, Column: table.Columns[0].Name, Labels: []string{"email"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback status %d: %s", rec.Code, rec.Body)
	}
	if got := svc.ServingVersion(); got != 0 {
		t.Fatalf("serving version after feedback = %d, want 0 (drifted)", got)
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

	// Hot-swap back to the base version: a fresh materialization, not the
	// drifted object.
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
	if svc.detector.Model() == before {
		t.Fatal("swap did not replace the serving model")
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
	svc.AttachRegistry(reg, "taste", 0)
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
	svc.AttachRegistry(reg, "taste", 0)
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
	if _, err := reg.Publish("taste", m2.Params()); err != nil {
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
