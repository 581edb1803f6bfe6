package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// durationField is the one field of a detect body that differs between two
// correct answers to the same request.
var durationField = regexp.MustCompile(`"duration_ms":[0-9]+`)

// TestRequestStateStaysRequestScoped: the storage a detect reuses — core's
// batch, the response it is written from, the flight record — belongs to
// one request until that request is done with it. Goroutines post a mix of
// bodies through Handler() at once: tables the result tier answers and
// tables it does not, a two-table and a whole-database pipelined detect,
// and rounds in which every goroutine posts the same uncached table
// together, so followers share a leader's response. Between two such
// passes one table's metadata changes under the same name. Every body must
// equal, bar duration_ms, the one a fresh service answers sequentially for
// the tenant as it then is.
func TestRequestStateStaysRequestScoped(t *testing.T) {
	_, ds := testService(t)
	tables := ds.Test[:6]
	revised := *tables[0]
	revised.Comment += " (revised)"
	revised.Columns = append([]*corpus.Column(nil), revised.Columns...)
	col := *revised.Columns[0]
	col.Comment = "revised " + col.Comment
	revised.Columns[0] = &col
	states := [][]*corpus.Table{tables, append([]*corpus.Table{&revised}, tables[1:]...)}
	// Each request takes two round trips, long enough for identical ones
	// posted together to coalesce.
	latency := simdb.LatencyProfile{QueryRoundTrip: time.Millisecond, SamplingPenalty: 1}
	tenant := func(ts []*corpus.Table) *simdb.Server {
		server := simdb.NewServer(latency)
		server.LoadTables("tenantdb", ts)
		return server
	}
	newService := func() *Service {
		opts := core.DefaultOptions()
		opts.ResultCacheBytes = 16 << 20
		det, err := core.NewDetector(shared.det.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return New(det)
	}
	post := func(h http.Handler, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
		}
		return durationField.ReplaceAllString(rec.Body.String(), `"duration_ms":0`)
	}
	var bodies []string
	for _, tb := range tables {
		bodies = append(bodies, fmt.Sprintf(`{"database":"tenantdb","tables":[%q]}`, tb.Name))
	}
	bodies = append(bodies,
		fmt.Sprintf(`{"database":"tenantdb","tables":[%q,%q]}`, tables[1].Name, tables[0].Name),
		`{"database":"tenantdb","pipelined":true}`)

	svc := newService()
	h := svc.Handler()
	for state, ts := range states {
		ref := newService()
		ref.RegisterTenant("tenantdb", tenant(ts))
		want := make(map[string]string, len(bodies))
		for _, body := range bodies {
			want[body] = post(ref.Handler(), body)
		}
		svc.RegisterTenant("tenantdb", tenant(ts))
		// Half the single-table bodies are answered by the result tier from
		// the start; after the change the revised table's are not.
		for _, body := range bodies[:len(tables)/2] {
			post(h, body)
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					// Every worker posts the same uncached table together;
					// then each walks the bodies from its own offset.
					together := bodies[len(tables)/2+round]
					order := append([]string{together}, bodies...)
					for k := range order[1:] {
						order[1+k] = bodies[(k+w)%len(bodies)]
					}
					for _, body := range order {
						if got := post(h, body); got != want[body] {
							t.Errorf("state %d, %s:\n got %s\nwant %s", state, body, got, want[body])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if st := svc.CacheStats().Flight; st.Coalesced == 0 {
		t.Fatalf("no request was coalesced, so no follower read a leader's response: %+v", st)
	}
}
