package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubReplica is a scriptable fake tasted replica.
type stubReplica struct {
	name string
	srv  *httptest.Server

	mu        sync.Mutex
	bodies    [][]byte // raw /v1/detect bodies received
	detects   int
	respond   func(w http.ResponseWriter, body []byte)
	statsOK   bool
	metrics   string
	blockOn   chan struct{} // when non-nil, /v1/detect blocks until closed
	blockedAt atomic.Int64
}

func newStubReplica(name string) *stubReplica {
	s := &stubReplica{name: name, statsOK: true}
	s.respond = func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"database":"x","tables":[],"served_by":%q,"degraded":false}`, name)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.detects++
		s.bodies = append(s.bodies, body)
		block := s.blockOn
		respond := s.respond
		s.mu.Unlock()
		if block != nil {
			s.blockedAt.Add(1)
			<-block
		}
		respond(w, body)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ok := s.statsOK
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	})
	mux.HandleFunc("/v1/types", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"types":["city","country"],"from":%q}`, name)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		m := s.metrics
		s.mu.Unlock()
		fmt.Fprint(w, m)
	})
	s.srv = httptest.NewServer(mux)
	return s
}

func (s *stubReplica) setStatsOK(ok bool) {
	s.mu.Lock()
	s.statsOK = ok
	s.mu.Unlock()
}

func (s *stubReplica) detectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detects
}

// startCoordinator serves a coordinator over the stubs. It does not Start
// the background prober: tests drive ProbeOnce themselves.
func startCoordinator(t *testing.T, stubs ...*stubReplica) (*Coordinator, *httptest.Server) {
	t.Helper()
	replicas := make(map[string]string, len(stubs))
	for _, s := range stubs {
		replicas[s.name] = s.srv.URL
	}
	c := NewCoordinator(replicas, Config{})
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	return c, srv
}

func postDetect(t *testing.T, baseURL, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/detect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return resp
}

func fetchStats(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return out
}

// keyOwnedBy finds a database name whose route key the ring assigns to the
// wanted replica — so tests can steer requests at a specific owner.
func keyOwnedBy(r *Ring, want string) string {
	for i := 0; i < 10000; i++ {
		db := fmt.Sprintf("db%04d", i)
		if r.Owner(db) == want {
			return db
		}
	}
	panic("no key found for " + want)
}

// TestCoordinatorRoutesToOwner: the replica named in X-Taste-Replica is the
// ring owner of the request's route key, and the proxied body reaches the
// replica byte-identical.
func TestCoordinatorRoutesToOwner(t *testing.T) {
	a, b := newStubReplica("a"), newStubReplica("b")
	defer a.srv.Close()
	defer b.srv.Close()
	c, srv := startCoordinator(t, a, b)

	for _, want := range []string{"a", "b"} {
		db := keyOwnedBy(c.Ring(), want)
		body := fmt.Sprintf(`{"database":%q,"pipelined":true,"deadline_ms":250}`, db)
		resp := postDetect(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get(ReplicaHeader); got != want {
			t.Fatalf("routed to %q, ring owner is %q", got, want)
		}
	}
	a.mu.Lock()
	gotBody := string(a.bodies[0])
	a.mu.Unlock()
	wantBody := fmt.Sprintf(`{"database":%q,"pipelined":true,"deadline_ms":250}`, keyOwnedBy(c.Ring(), "a"))
	if gotBody != wantBody {
		t.Fatalf("body not passed through verbatim:\n got %s\nwant %s", gotBody, wantBody)
	}
	st := fetchStats(t, srv.URL)
	if st.Routing.Routed != 2 || st.Routing.Failovers != 0 {
		t.Fatalf("stats: %+v", st.Routing)
	}
}

// TestCoordinatorSingleTableSpreads: single-table requests for one tenant
// hash at database/table granularity, so a multi-table tenant's traffic
// lands on more than one replica.
func TestCoordinatorSingleTableSpreads(t *testing.T) {
	a, b, c3 := newStubReplica("a"), newStubReplica("b"), newStubReplica("c")
	defer a.srv.Close()
	defer b.srv.Close()
	defer c3.srv.Close()
	_, srv := startCoordinator(t, a, b, c3)

	hit := make(map[string]bool)
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"database":"bigtenant","tables":["t%02d"]}`, i)
		resp := postDetect(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		hit[resp.Header.Get(ReplicaHeader)] = true
	}
	if len(hit) < 2 {
		t.Fatalf("24 single-table keys all landed on one replica: %v", hit)
	}
}

// TestCoordinatorFailoverMidBurst: the owner dies mid-burst; subsequent
// requests retry, fail over to the next chain node, and keep succeeding.
// The stats ledger accounts the retries and failovers, and hysteresis
// ejects the dead replica.
func TestCoordinatorFailoverMidBurst(t *testing.T) {
	a, b := newStubReplica("a"), newStubReplica("b")
	defer b.srv.Close()
	c, srv := startCoordinator(t, a, b)

	db := keyOwnedBy(c.Ring(), "a")
	body := fmt.Sprintf(`{"database":%q}`, db)
	for i := 0; i < 3; i++ {
		resp := postDetect(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(ReplicaHeader); got != "a" {
			t.Fatalf("pre-kill request %d served by %q", i, got)
		}
	}

	a.srv.Close() // kill the owner mid-burst

	for i := 0; i < 4; i++ {
		resp := postDetect(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ReplicaHeader); got != "b" {
			t.Fatalf("post-kill request %d served by %q, want failover to b", i, got)
		}
	}

	st := fetchStats(t, srv.URL)
	if st.Routing.Routed != 7 {
		t.Fatalf("routed = %d, want 7", st.Routing.Routed)
	}
	// ejectAfter is 3 and each failed routing attempt reports one failure:
	// the first 3 post-kill requests each burn 2 retries on "a" and fail
	// over to "b", after which "a" must be ejected…
	if st.Routing.Failovers != 3 || st.Routing.Retries != 6 {
		t.Fatalf("failovers = %d, retries = %d, want 3 and 6", st.Routing.Failovers, st.Routing.Retries)
	}
	if c.pool.IsHealthy("a") {
		t.Fatalf("dead replica still marked healthy after %d failures", st.Routing.Failovers)
	}
	// …and later requests skip it without burning retries (chain starts at
	// the healthy fallback immediately).
	pre := fetchStats(t, srv.URL).Routing.Retries
	resp := postDetect(t, srv.URL, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := fetchStats(t, srv.URL).Routing.Retries; got != pre {
		t.Fatalf("ejected replica still being retried (%d→%d)", pre, got)
	}
}

// TestCoordinatorAllDown503: with every replica unreachable the coordinator
// answers 503 with a machine-readable reason, not a hang or a 500.
func TestCoordinatorAllDown503(t *testing.T) {
	a, b := newStubReplica("a"), newStubReplica("b")
	_, srv := startCoordinator(t, a, b)
	a.srv.Close()
	b.srv.Close()

	resp := postDetect(t, srv.URL, `{"database":"any"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var out struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
		Key    string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	if out.Error != "fleet unavailable" || out.Reason == "" || out.Key != "any" {
		t.Fatalf("503 body: %+v", out)
	}
	st := fetchStats(t, srv.URL)
	if st.Routing.Unavailable != 1 {
		t.Fatalf("unavailable = %d, want 1", st.Routing.Unavailable)
	}
}

// TestCoordinatorQueueOverflow429: with all 64 in-flight slots held by
// requests blocked inside the replica and all 32 queue slots taken, the
// next request is shed with 429 + Retry-After; the blocked ones still
// finish.
func TestCoordinatorQueueOverflow429(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	release := make(chan struct{})
	a.mu.Lock()
	a.blockOn = release
	a.mu.Unlock()
	c, srv := startCoordinator(t, a)

	statuses := make(chan int, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/detect", "application/json", strings.NewReader(`{"database":"d"}`))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitUntil(t, 5*time.Second, func() bool { return a.blockedAt.Load() == maxInFlight })
	// A queued request gives up after queueWait, too soon to line 32 of
	// them up over HTTP; a token stands for each waiter instead.
	for i := 0; i < queueDepth; i++ {
		c.queue <- struct{}{}
	}

	resp := postDetect(t, srv.URL, `{"database":"d"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	for i := 0; i < queueDepth; i++ {
		<-c.queue
	}
	close(release)
	for i := 0; i < maxInFlight; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Fatalf("in-flight request status = %d", got)
		}
	}
	st := fetchStats(t, srv.URL)
	if st.Routing.Shed != 1 || st.Routing.Routed != maxInFlight {
		t.Fatalf("shed = %d, routed = %d, want 1 and %d", st.Routing.Shed, st.Routing.Routed, maxInFlight)
	}
}

// TestCoordinatorQueuesAtCapacity pins the queue: with 64 requests in
// flight, the 65th waits for a slot rather than being shed, and is served
// when one frees.
func TestCoordinatorQueuesAtCapacity(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	c, srv := startCoordinator(t, a)

	// A token in sem is a request in flight; taking one back frees its
	// slot at once, well inside queueWait.
	for i := 0; i < maxInFlight; i++ {
		c.sem <- struct{}{}
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/detect", "application/json", strings.NewReader(`{"database":"d"}`))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	// Spin rather than poll: the request gives up queueWait after it
	// queued, so the slot must free well before that.
	for deadline := time.Now().Add(5 * time.Second); len(c.queue) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("request 65 never queued")
		}
	}
	<-c.sem
	if got := <-status; got != http.StatusOK {
		t.Fatalf("queued request status = %d, want 200", got)
	}
	for i := 1; i < maxInFlight; i++ {
		<-c.sem
	}
	st := fetchStats(t, srv.URL)
	if st.Routing.Shed != 0 || st.Routing.Routed != 1 {
		t.Fatalf("shed = %d, routed = %d, want 0 and 1", st.Routing.Shed, st.Routing.Routed)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", timeout)
}

// TestPoolHysteresis: 3 consecutive probe failures eject; a single success
// resets the streak; 2 consecutive good probes readmit.
func TestPoolHysteresis(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	p := NewPool(map[string]string{"a": a.srv.URL}, http.DefaultClient)

	var transitions []bool
	var tmu sync.Mutex
	p.SetTransitionHook(func(_ string, healthy bool) {
		tmu.Lock()
		transitions = append(transitions, healthy)
		tmu.Unlock()
	})

	ctx := t.Context()
	// 2 failures + success: streak resets, still healthy.
	a.setStatsOK(false)
	p.ProbeOnce(ctx)
	p.ProbeOnce(ctx)
	a.setStatsOK(true)
	p.ProbeOnce(ctx)
	if !p.IsHealthy("a") {
		t.Fatal("ejected before 3 consecutive failures")
	}
	// 3 consecutive failures: ejected.
	a.setStatsOK(false)
	for i := 0; i < 3; i++ {
		p.ProbeOnce(ctx)
	}
	if p.IsHealthy("a") {
		t.Fatal("not ejected after 3 consecutive failures")
	}
	// 1 good probe is not enough to readmit…
	a.setStatsOK(true)
	p.ProbeOnce(ctx)
	if p.IsHealthy("a") {
		t.Fatal("readmitted after a single good probe")
	}
	// …2 consecutive are.
	p.ProbeOnce(ctx)
	if !p.IsHealthy("a") {
		t.Fatal("not readmitted after 2 good probes")
	}
	tmu.Lock()
	defer tmu.Unlock()
	if len(transitions) != 2 || transitions[0] != false || transitions[1] != true {
		t.Fatalf("transitions = %v, want [false true]", transitions)
	}
	snap := p.Snapshot()
	if snap[0].Ejections != 1 || snap[0].Probes != 8 || snap[0].ProbeFailures != 5 {
		t.Fatalf("snapshot: %+v", snap[0])
	}
}

// TestCoordinatorMetricsAggregation: /metrics sums replica series by
// identity and appends the coordinator's own taste_fleet_* series; the
// whole exposition stays well-formed.
func TestCoordinatorMetricsAggregation(t *testing.T) {
	a, b := newStubReplica("a"), newStubReplica("b")
	defer a.srv.Close()
	defer b.srv.Close()
	a.mu.Lock()
	a.metrics = "# TYPE taste_detect_requests_total counter\ntaste_detect_requests_total{outcome=\"ok\"} 3\n"
	a.mu.Unlock()
	b.mu.Lock()
	b.metrics = "# TYPE taste_detect_requests_total counter\ntaste_detect_requests_total{outcome=\"ok\"} 4\n"
	b.mu.Unlock()
	_, srv := startCoordinator(t, a, b)

	resp := postDetect(t, srv.URL, `{"database":"d"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	exposition := string(text)
	if !strings.Contains(exposition, `taste_detect_requests_total{outcome="ok"} 7`) {
		t.Fatalf("replica counters not summed:\n%s", exposition)
	}
	for _, want := range []string{
		`taste_fleet_requests_total{outcome="routed"} 1`,
		"taste_fleet_replicas_healthy 2",
		`taste_fleet_replica_requests_total`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("missing %q in:\n%s", want, exposition)
		}
	}
	if err := obs.CheckText(exposition); err != nil {
		t.Fatalf("aggregated exposition malformed: %v", err)
	}
}

// TestCoordinatorTypesPassthrough: /v1/types proxies a healthy replica's
// answer and survives the first replica being down.
func TestCoordinatorTypesPassthrough(t *testing.T) {
	a, b := newStubReplica("a"), newStubReplica("b")
	defer b.srv.Close()
	_, srv := startCoordinator(t, a, b)
	a.srv.Close()

	resp, err := http.Get(srv.URL + "/v1/types")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"from":"b"`) {
		t.Fatalf("types not served by surviving replica: %s", body)
	}
}

// TestCoordinatorTypes500Ejects: a replica whose /v1/types answers 500 is
// charged a failure per call, as a transport error is, so the third call
// ejects it.
func TestCoordinatorTypes500Ejects(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer a.Close()
	c := NewCoordinator(map[string]string{"a": a.URL}, Config{})
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for i := 1; i <= 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/types")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("call %d: status %d, want 503", i, resp.StatusCode)
		}
		if healthy := c.pool.IsHealthy("a"); healthy != (i < 3) {
			t.Fatalf("after %d 500s healthy = %v", i, healthy)
		}
	}
}

// TestCoordinatorStopWithoutStart: Stop on a coordinator whose prober was
// never started returns instead of waiting for a goroutine that never ran.
func TestCoordinatorStopWithoutStart(t *testing.T) {
	c := NewCoordinator(map[string]string{"a": "http://a.invalid"}, Config{})
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop without Start did not return")
	}
}

// TestCoordinatorDegradedPassThrough: a 200-degraded replica answer passes
// through byte-identical — the coordinator must not re-interpret it.
func TestCoordinatorDegradedPassThrough(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	const degraded = `{"database":"d","tables":[],"degraded":true,"degraded_columns":5}`
	a.mu.Lock()
	a.respond = func(w http.ResponseWriter, _ []byte) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, degraded)
	}
	a.mu.Unlock()
	_, srv := startCoordinator(t, a)

	resp := postDetect(t, srv.URL, `{"database":"d"}`)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != degraded {
		t.Fatalf("degraded answer altered: %d %s", resp.StatusCode, body)
	}
}

// TestCoordinatorBadRequest: malformed JSON and oversized bodies are the
// coordinator's own 4xx, never proxied.
func TestCoordinatorBadRequest(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	_, srv := startCoordinator(t, a)

	resp := postDetect(t, srv.URL, `{not json`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// maxBodyBytes+1 bytes of otherwise valid JSON.
	big := fmt.Sprintf(`{"database":%q}`, strings.Repeat("x", maxBodyBytes+1-len(`{"database":""}`)))
	resp = postDetect(t, srv.URL, big)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if got := a.detectCount(); got != 0 {
		t.Fatalf("bad requests reached the replica %d times", got)
	}
}

// TestCoordinatorStatsReadTheMetricsLedger: /v1/stats reads the counters
// /metrics exposes, so a 400 for a malformed body shows as one routing
// error in both, and a routed request as one route for its replica.
func TestCoordinatorStatsReadTheMetricsLedger(t *testing.T) {
	a := newStubReplica("a")
	defer a.srv.Close()
	_, srv := startCoordinator(t, a)

	for _, body := range []string{`{not json`, `{"database":"d"}`} {
		resp := postDetect(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st := fetchStats(t, srv.URL)
	if st.Routing.Errors != 1 || st.Routing.Routed != 1 || st.Routing.PerReplica["a"] != 1 {
		t.Fatalf("stats: %+v", st.Routing)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`taste_fleet_requests_total{outcome="error"} 1`,
		`taste_fleet_replica_requests_total{replica="a"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}
