package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/simdb"
)

// assertClosedOnce asserts that the service already closed each connection:
// a Conn closes exactly once, so this second Close must be refused.
func assertClosedOnce(t *testing.T, conns ...*simdb.Conn) {
	t.Helper()
	for _, conn := range conns {
		if err := conn.Close(); err == nil || !strings.Contains(err.Error(), "already closed") {
			t.Errorf("connection %p was still open (second Close: %v)", conn, err)
		}
	}
}

// idleConns snapshots a tenant's idle list, oldest first.
func idleConns(tn *tenant) []*simdb.Conn {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return append([]*simdb.Conn(nil), tn.idle...)
}

// detectOne posts a single-table detect and decodes the 200 it must get.
func detectOne(t *testing.T, h http.Handler, req DetectRequest) DetectResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/v1/detect", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %v: status %d: %s", req.Database, req.Tables, rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func tablesJSON(t *testing.T, resp DetectResponse) string {
	t.Helper()
	out, err := json.Marshal(resp.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// referenceAnswers returns, per test table, the tables block a single-table
// detect gets from a fault-free tenant on a Service of its own — one
// handshake per request, nothing pooled.
func referenceAnswers(t *testing.T, ds *corpus.Dataset) map[string]string {
	t.Helper()
	refs := map[string]string{}
	for _, tb := range ds.Test {
		fresh, _ := testService(t)
		refs[tb.Name] = tablesJSON(t, detectOne(t, fresh.Handler(), DetectRequest{Database: "tenantdb", Tables: []string{tb.Name}}))
	}
	return refs
}

// TestPoolReusesOneConnection: one serial client's clean requests — single
// table, whole database sequential and pipelined, feedback — all ride the
// connection the first of them opened, and Close closes it exactly once,
// after which requests still answer but pool nothing.
func TestPoolReusesOneConnection(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	tn, _ := svc.tenant("tenantdb")
	hits0, misses0, idle0 := connpoolHits.Value(), connpoolMisses.Value(), connpoolIdle.Value()

	var held *simdb.Conn
	step := func(what string) {
		t.Helper()
		idle := idleConns(tn)
		if len(idle) != 1 || (held != nil && idle[0] != held) {
			t.Fatalf("after %s: idle list %v, want exactly the first connection %p", what, idle, held)
		}
		held = idle[0]
		if got := tn.server.Accounting().Snapshot().Connections; got != 1 {
			t.Fatalf("after %s: %d handshakes, want 1", what, got)
		}
	}
	detectOne(t, h, DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})
	step("single-table detect")
	detectOne(t, h, DetectRequest{Database: "tenantdb"})
	step("sequential bulk detect")
	detectOne(t, h, DetectRequest{Database: "tenantdb", Pipelined: true})
	step("pipelined bulk detect")
	if rec := doJSON(t, h, http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "tenantdb", Table: ds.Test[0].Name, Column: ds.Test[0].Columns[0].Name, Labels: []string{"email"},
	}); rec.Code != http.StatusOK {
		t.Fatalf("feedback: status %d: %s", rec.Code, rec.Body)
	}
	step("feedback")
	if hits, misses := connpoolHits.Value()-hits0, connpoolMisses.Value()-misses0; hits != 3 || misses != 1 {
		t.Fatalf("checkouts: %d hits, %d misses, want 3 and 1", hits, misses)
	}
	if got := connpoolIdle.Value() - idle0; got != 1 {
		t.Fatalf("idle gauge moved by %d, want 1", got)
	}

	svc.Close()
	assertClosedOnce(t, held)
	if got := connpoolIdle.Value() - idle0; got != 0 {
		t.Fatalf("idle gauge %d above its start after Close", got)
	}
	detectOne(t, h, DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})
	if idle := idleConns(tn); len(idle) != 0 {
		t.Fatalf("a request after Close pooled its connection: %v", idle)
	}
	if got := tn.server.Accounting().Snapshot().Connections; got != 2 {
		t.Fatalf("%d handshakes after a post-Close request, want 2", got)
	}
}

// TestConnectFaultRetriedNot500: single-table detect and feedback used to
// call server.Connect bare, so one transient connect fault — which `tasted
// -fault-prob` arms — was an HTTP 500 while the bulk path retried it. Every
// fresh connect now pays the detector's retry ladder and reports its retries.
func TestConnectFaultRetriedNot500(t *testing.T) {
	flakyTenant := func(seed int64) (*Service, http.Handler, *corpus.Dataset, *simdb.Server) {
		svc, ds := testService(t)
		flaky := simdb.NewServer(simdb.NoLatency)
		flaky.LoadTables("flaky", ds.Test)
		flaky.SetFaultProfile(simdb.FaultProfile{Seed: seed, ConnectFailProb: 0.5})
		svc.RegisterTenant("flaky", flaky)
		return svc, svc.Handler(), ds, flaky
	}
	_, ds := testService(t)
	refs := referenceAnswers(t, ds)

	// Seed 9's first two connect draws fail. A request that spent a retry
	// does not pool its connection, so the draws keep coming until a first
	// attempt succeeds; re-registering the tenant empties the pool again.
	svc, h, ds, flaky := flakyTenant(9)
	retries := 0
	for round := 0; round < 3; round++ {
		for _, tb := range ds.Test {
			resp := detectOne(t, h, DetectRequest{Database: "flaky", Tables: []string{tb.Name}})
			if resp.Degraded || len(resp.Errors) != 0 {
				t.Fatalf("round %d, table %s: a retried connect must not degrade: %+v", round, tb.Name, resp)
			}
			if got := tablesJSON(t, resp); got != refs[tb.Name] {
				t.Fatalf("round %d, table %s differs from the fault-free answer", round, tb.Name)
			}
			retries += resp.Retries
		}
		svc.RegisterTenant("flaky", flaky)
	}
	snap := flaky.Accounting().Snapshot()
	if retries == 0 || retries != snap.Faults || retries != snap.Retries {
		t.Fatalf("response retries %d, ledger retries %d, connect faults %d: want all equal and > 0", retries, snap.Retries, snap.Faults)
	}

	// Feedback's connect is retried the same way (seed 2 fails the first
	// connect draw).
	_, h, ds, flaky = flakyTenant(2)
	rec := doJSON(t, h, http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "flaky", Table: ds.Test[0].Name, Column: ds.Test[0].Columns[0].Name, Labels: []string{"email"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback over a transient connect fault: status %d: %s", rec.Code, rec.Body)
	}
	if flaky.Accounting().Snapshot().Faults == 0 {
		t.Fatal("the seeded connect fault never fired")
	}

	// A deadline that is dead on arrival is still a degraded 200.
	svc, h, ds, _ = flakyTenant(2)
	svc.SetDefaultDeadline(time.Nanosecond)
	resp := detectOne(t, h, DetectRequest{Database: "flaky", Tables: []string{ds.Test[0].Name}})
	if !resp.Degraded || len(resp.Errors) == 0 {
		t.Fatalf("dead-on-arrival deadline must answer degraded with a reason: %+v", resp)
	}
}

// TestPoolNeverReusesFaultedConnection is the pool's fault battery: one
// serial client against a tenant injecting one fault kind at a time. The
// connection a faulted request held (it retried, degraded, or errored) is
// closed exactly once and never seen again, so the tenant pays one handshake
// up front plus one after every faulted request; a clean request's
// connection is the very one the next request gets. Every response equals
// the fault-free, pool-less answer or says it is degraded and why.
func TestPoolNeverReusesFaultedConnection(t *testing.T) {
	_, ds := testService(t)
	refs := referenceAnswers(t, ds)
	for _, tc := range []struct {
		name    string
		profile simdb.FaultProfile
	}{
		{"query", simdb.FaultProfile{Seed: 11, QueryFailProb: 0.3}},
		{"scan", simdb.FaultProfile{Seed: 12, ScanFailProb: 0.4}},
		{"mid-scan drop", simdb.FaultProfile{Seed: 13, MidScanDropProb: 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ds := testService(t)
			flaky := simdb.NewServer(simdb.NoLatency)
			flaky.LoadTables("flaky", ds.Test)
			flaky.SetFaultProfile(tc.profile)
			svc.RegisterTenant("flaky", flaky)
			h := svc.Handler()
			tn, _ := svc.tenant("flaky")

			wantConns, faulted, clean := 0, 0, 0
			for round := 0; round < 3; round++ {
				for _, tb := range ds.Test {
					before := idleConns(tn)
					if len(before) == 0 {
						wantConns++ // nothing warm: this request pays a handshake
					}
					resp := detectOne(t, h, DetectRequest{Database: "flaky", Tables: []string{tb.Name}})
					after := idleConns(tn)
					if resp.Retries > 0 || resp.Degraded || len(resp.Errors) > 0 {
						faulted++
						if len(after) != 0 {
							t.Fatalf("table %s: faulted request (%d retries, degraded %v, errors %v) left %v in the pool",
								tb.Name, resp.Retries, resp.Degraded, resp.Errors, after)
						}
						assertClosedOnce(t, before...)
					} else {
						clean++
						if len(after) != 1 || (len(before) == 1 && after[0] != before[0]) {
							t.Fatalf("table %s: clean request: idle %v → %v, want the same single connection", tb.Name, before, after)
						}
					}
					if !resp.Degraded && len(resp.Errors) == 0 {
						if got := tablesJSON(t, resp); got != refs[tb.Name] {
							t.Fatalf("table %s: undegraded response differs from the fault-free answer", tb.Name)
						}
						continue
					}
					reasons := len(resp.Errors)
					for _, rt := range resp.Tables {
						for _, c := range rt.Columns {
							if c.Degraded && c.DegradeReason == "" {
								t.Fatalf("table %s column %s: degraded without a reason", tb.Name, c.Column)
							}
							if c.Degraded {
								reasons++
							}
						}
					}
					if reasons == 0 {
						t.Fatalf("table %s: degraded response names no reason: %+v", tb.Name, resp)
					}
				}
			}
			if faulted == 0 || clean == 0 {
				t.Fatalf("%d faulted and %d clean requests: the profile must produce both", faulted, clean)
			}
			if got := flaky.Accounting().Snapshot().Connections; got != wantConns {
				t.Fatalf("%d handshakes, want %d (one per request that found the pool empty)", got, wantConns)
			}
		})
	}

	// A read cancelled by the request's deadline poisons the connection just
	// as a fault does: the next request must not inherit it.
	t.Run("deadline-cancelled read", func(t *testing.T) {
		svc, ds := testService(t)
		slow := simdb.NewServer(simdb.LatencyProfile{QueryRoundTrip: 40 * time.Millisecond, SamplingPenalty: 1})
		slow.LoadTables("slow", ds.Test)
		svc.RegisterTenant("slow", slow)
		h := svc.Handler()
		tn, _ := svc.tenant("slow")
		table := []string{ds.Test[0].Name}

		const rounds = 3
		for round := 0; round < rounds; round++ {
			resp := detectOne(t, h, DetectRequest{Database: "slow", Tables: table})
			if resp.Degraded || tablesJSON(t, resp) != refs[table[0]] {
				t.Fatalf("round %d: clean request differs from the reference: %+v", round, resp)
			}
			warm := idleConns(tn)
			if len(warm) != 1 {
				t.Fatalf("round %d: idle %v after a clean request, want one connection", round, warm)
			}
			resp = detectOne(t, h, DetectRequest{Database: "slow", Tables: table, DeadlineMillis: 5})
			if !resp.Degraded || len(resp.Errors) == 0 {
				t.Fatalf("round %d: a 5 ms deadline against a 40 ms round trip must degrade with a reason: %+v", round, resp)
			}
			if idle := idleConns(tn); len(idle) != 0 {
				t.Fatalf("round %d: the cancelled request's connection went back to the pool: %v", round, idle)
			}
			assertClosedOnce(t, warm...)
		}
		if got := slow.Accounting().Snapshot().Connections; got != rounds {
			t.Fatalf("%d handshakes, want %d (one after every cancelled request)", got, rounds)
		}
	})
}

// TestReRegisterTenantDropsIdleConnections: re-registering a tenant name
// closes the replaced server's idle connections, hands none of them out, and
// a connection checked out across the re-registration is closed on release
// instead of landing in the new server's idle list.
func TestReRegisterTenantDropsIdleConnections(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	req := DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}}
	detectOne(t, h, req)
	oldTenant, _ := svc.tenant("tenantdb")
	oldIdle := idleConns(oldTenant)
	if len(oldIdle) != 1 {
		t.Fatalf("idle %v before re-registration, want one connection", oldIdle)
	}
	inFlight, _, err := oldTenant.checkout(context.Background(), svc.detector, "tenantdb")
	if err != nil {
		t.Fatal(err)
	}
	if inFlight != oldIdle[0] {
		t.Fatal("checkout did not reuse the idle connection")
	}
	// A second idle connection, so the re-registration has one to close
	// while the first is checked out.
	detectOne(t, h, req)
	oldIdle = idleConns(oldTenant)
	if len(oldIdle) != 1 || oldIdle[0] == inFlight {
		t.Fatalf("idle %v while %p is checked out: checkout is not exclusive", oldIdle, inFlight)
	}

	replacement := simdb.NewServer(simdb.NoLatency)
	replacement.LoadTables("tenantdb", ds.Test)
	svc.RegisterTenant("tenantdb", replacement)
	assertClosedOnce(t, oldIdle...)
	newTenant, _ := svc.tenant("tenantdb")

	oldTenant.release(inFlight, true)
	assertClosedOnce(t, inFlight)
	if idle := idleConns(newTenant); len(idle) != 0 {
		t.Fatalf("the replaced server's connection reached the new tenant's pool: %v", idle)
	}

	oldOpened := oldTenant.server.Accounting().Snapshot().Connections
	detectOne(t, h, req)
	if got := oldTenant.server.Accounting().Snapshot().Connections; got != oldOpened {
		t.Fatalf("the replaced server was dialled again (%d → %d handshakes)", oldOpened, got)
	}
	if got := replacement.Accounting().Snapshot().Connections; got != 1 {
		t.Fatalf("the new server saw %d handshakes, want 1", got)
	}
}

// TestPoolCheckoutIsExclusive drives the pool alone from more goroutines
// than the idle cap (run under -race): no two holders ever have the same
// connection, and the idle list never grows past the cap.
func TestPoolCheckoutIsExclusive(t *testing.T) {
	svc, _ := testService(t)
	tn, _ := svc.tenant("tenantdb")
	ctx := context.Background()

	var mu sync.Mutex
	held := map[*simdb.Conn]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 3*maxIdleConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				conn, _, err := tn.checkout(ctx, svc.detector, "tenantdb")
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[conn] {
					t.Errorf("connection %p handed to two holders at once", conn)
				}
				held[conn] = true
				mu.Unlock()
				if _, err := conn.ListTables(ctx); err != nil {
					t.Errorf("pooled connection unusable: %v", err)
				}
				mu.Lock()
				delete(held, conn)
				mu.Unlock()
				tn.release(conn, true)
				if n := len(idleConns(tn)); n > maxIdleConns {
					t.Errorf("idle list holds %d connections, cap is %d", n, maxIdleConns)
				}
			}
		}()
	}
	wg.Wait()
	idle := idleConns(tn)
	svc.Close()
	assertClosedOnce(t, idle...)
}
