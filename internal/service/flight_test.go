package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestDetectCoalescesConcurrentIdenticalRequests: identical in-flight
// detects share one execution — one leader runs the pipeline, followers
// wait on its result, and every caller receives an equivalent response.
func TestDetectCoalescesConcurrentIdenticalRequests(t *testing.T) {
	svc, _ := testService(t)
	req := DetectRequest{Database: "tenantdb"}

	const callers = 4
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		resps [callers]*DetectResponse
	)
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, apiErr := svc.Detect(context.Background(), req)
			if apiErr != nil {
				t.Errorf("caller %d: %v", i, apiErr)
				return
			}
			resps[i] = resp
		}(i)
	}
	start.Done()
	done.Wait()

	st := svc.CacheStats().Flight
	if st.Leaders+st.Coalesced != callers {
		t.Fatalf("flight ledger lost callers: %+v", st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no concurrent identical request was coalesced: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("flights left open: %+v", st)
	}

	// Every caller must see the same answer. Followers share the leader's
	// response verbatim; a second leader (if scheduling serialized some
	// callers) recomputes, which must be byte-identical bar the duration.
	canon := func(r *DetectResponse) string {
		cp := *r
		cp.DurationMillis = 0
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := canon(resps[0])
	for i := 1; i < callers; i++ {
		if got := canon(resps[i]); got != want {
			t.Fatalf("caller %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestDetectTraceBypassesFlight: traced requests are never coalesced —
// each caller needs its own span tree.
func TestDetectTraceBypassesFlight(t *testing.T) {
	svc, _ := testService(t)
	req := DetectRequest{Database: "tenantdb", Trace: true}
	if _, apiErr := svc.Detect(context.Background(), req); apiErr != nil {
		t.Fatal(apiErr)
	}
	if st := svc.CacheStats().Flight; st.Leaders != 0 || st.Coalesced != 0 {
		t.Fatalf("trace request entered the flight group: %+v", st)
	}
}

// TestLegacyRequestFieldsAreHarmless: fields the API has retired
// ("quantize", "batch_chunks", the pool sizes "workers", "prep_workers" and
// "infer_workers") are ignored, not honoured. A body carrying
// them answers the same bytes as the body without them and shares its flight
// key, so the two coalesce under singleflight.
func TestLegacyRequestFieldsAreHarmless(t *testing.T) {
	svc, _ := testService(t)
	h := svc.Handler()
	const plain = `{"database":"tenantdb","pipelined":true}`
	const legacy = `{"database":"tenantdb","pipelined":true,"quantize":true,"batch_chunks":8,"workers":3,"prep_workers":1,"infer_workers":2}`
	answer := func(body string) (key, canon string) {
		t.Helper()
		var req DetectRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		resp.DurationMillis = 0
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return flightKey(req), string(out)
	}
	legacyKey, legacyResp := answer(legacy)
	plainKey, plainResp := answer(plain)
	if legacyKey != plainKey {
		t.Fatalf("legacy fields split the flight key:\n%q\n%q", legacyKey, plainKey)
	}
	if legacyResp != plainResp {
		t.Fatalf("legacy fields changed the answer:\n%s\nvs\n%s", legacyResp, plainResp)
	}
}
