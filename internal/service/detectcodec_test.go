package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simdb"
)

// stdDecode is the reference readDetectRequest must match.
func stdDecode(r io.Reader) (DetectRequest, string) {
	var req DetectRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, errString(err)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecodeParity decodes body every way the handler can meet it — sized
// and read whole, sized and read a byte at a time, unsized, and cut short by
// a read error — and compares each with json.Decoder over the same stream.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := stdDecode(bytes.NewReader(body))
	for _, tc := range []struct {
		name string
		r    io.Reader
		size int64
	}{
		{"sized", bytes.NewReader(body), int64(len(body))},
		{"one byte a read", iotest.OneByteReader(bytes.NewReader(body)), int64(len(body))},
		{"unsized", bytes.NewReader(body), -1},
	} {
		got, err := readDetectRequest(tc.r, tc.size)
		if !reflect.DeepEqual(got, want) || errString(err) != wantErr {
			t.Fatalf("%s %q:\n got %#v, %q\nwant %#v, %q", tc.name, body, got, errString(err), want, wantErr)
		}
	}
	// A body the transport cuts short: the bytes that arrived, then an error.
	boom := errors.New("connection reset")
	half := body[:len(body)/2]
	want, wantErr = stdDecode(io.MultiReader(bytes.NewReader(half), iotest.ErrReader(boom)))
	got, err := readDetectRequest(io.MultiReader(bytes.NewReader(half), iotest.ErrReader(boom)), int64(len(body)))
	if !reflect.DeepEqual(got, want) || errString(err) != wantErr {
		t.Fatalf("cut short %q:\n got %#v, %q\nwant %#v, %q", half, got, errString(err), want, wantErr)
	}
}

var decodeSeeds = []string{
	`{"database":"tenantdb"}`,
	`{"database":"tenantdb","tables":["t1"]}`,
	` {"database":"tenantdb", "tables":["a" , "b"],"pipelined":true,"deadline_ms":25,"trace":false,"model_version":3}` + "\n",
	`{}`,
	`{"tables":[]}`,
	`{"tables":null}`,
	`{"database":null}`,
	`{"database":"a\u0062"}`,
	`{"database":"a\"b"}`,
	"{\"database\":\"caf\xc3\xa9\"}",
	"{\"database\":\"\x7f\"}",
	"{\"database\":\"\x01\"}",
	"{\"database\":\"\xff\"}",
	`{"database":"a","database":"b"}`,
	`{"tables":["a"],"tables":["b","c"]}`,
	`{"Database":"x"}`,
	`{"DATABASE":"x","Pipelined":true}`,
	`{"database":"x","retired_knob":4}`,
	`{"pipelined":tru}`,
	`{"pipelined":1}`,
	`{"trace":true}`,
	`{"deadline_ms":1.5}`,
	`{"deadline_ms":1e3}`,
	`{"deadline_ms":01}`,
	`{"deadline_ms":-0}`,
	`{"deadline_ms":-}`,
	`{"deadline_ms":9223372036854775807}`,
	`{"deadline_ms":9223372036854775808}`,
	`{"deadline_ms":-9223372036854775808}`,
	`{"deadline_ms":-9223372036854775809}`,
	`{"model_version":99999999999999999999}`,
	`{"deadline_ms":"5"}`,
	`{"database":"x"} trailing`,
	`{"database":"x"}{"database":"y"}`,
	`{"database":"x",}`,
	`{"tables":["a",]}`,
	`{"database":"x"`,
	`[]`,
	`null`,
	``,
	"  \n",
	`{not json`,
}

// TestCommonBodiesTakeTheFastPath: the common request shapes, the first
// decode seeds, are parsed by hand, not by json.Decoder.
func TestCommonBodiesTakeTheFastPath(t *testing.T) {
	for _, s := range decodeSeeds[:5] {
		var req DetectRequest
		if !parseDetectRequest([]byte(s), &req) {
			t.Errorf("%s: the common shape missed the fast path", s)
		}
	}
}

// FuzzDetectRequestDecode: for any body, readDetectRequest gives the request
// and the error text json.Decoder gives.
func FuzzDetectRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 2*fastBodyBytes {
			return
		}
		checkDecodeParity(t, body)
	})
}

// fuzzResponse builds a response from fuzzed parts; shape picks nil, empty
// and filled slices, the omitempty fields and the trace.
func fuzzResponse(a, b, c string, n, m int64, shape uint16) *DetectResponse {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	resp := &DetectResponse{
		Database: a, DurationMillis: n, TotalColumns: int(m), ScannedColumns: int(n >> 3),
		Degraded: bit(0), DegradedColumns: int(m >> 5), Retries: int(shape), ModelVersion: int(m % 7),
	}
	if bit(1) {
		resp.Tables = []DetectTable{}
	}
	if bit(2) {
		col := DetectColumn{Column: b, Phase: int(n % 3), Scanned: bit(3), Degraded: bit(4), DegradeReason: c}
		switch {
		case bit(5):
			col.Types = []string{}
		case bit(6):
			col.Types = []string{a, b, c}
		}
		tab := DetectTable{Table: c, Skipped: bit(7)}
		if bit(8) {
			tab.SkipReason = b
		}
		if bit(9) {
			tab.Columns = []DetectColumn{col, {Column: a}}
		} else if bit(10) {
			tab.Columns = []DetectColumn{}
		}
		resp.Tables = append(resp.Tables, tab, DetectTable{Table: a})
	}
	switch {
	case bit(11):
		resp.Errors = []string{}
	case bit(12):
		resp.Errors = []string{c, a}
	}
	if bit(13) {
		resp.Trace = &obs.SpanNode{Name: a, StartMicros: n, DurationMicros: m,
			Children: []obs.SpanNode{{Name: b}, {Name: c, StartMicros: m}}}
	}
	return resp
}

func checkEncodeParity(t *testing.T, resp *DetectResponse) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	got, err := appendDetectResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoder parity:\n got %s\nwant %s", got, want.Bytes())
	}
}

var encodeSeeds = []string{"", "plain", `<script>&amp;</script>`, "\b\f\n\r\t\x00\x01\x1f\x7f", `"quoted\"\\`,
	"line\u2028para\u2029", "bad\xffutf8\xc3", "caf\xc3\xa9 中 😀", "\xed\xa0\x80surrogate"}

// TestDetectResponseEncodeSeeds runs the encode parity over every escape
// class and every shape bit.
func TestDetectResponseEncodeSeeds(t *testing.T) {
	for i, s := range encodeSeeds {
		for shape := uint16(0); shape < 1<<14; shape += 1 + uint16(i)*97 {
			checkEncodeParity(t, fuzzResponse(s, encodeSeeds[(i+1)%len(encodeSeeds)], s+"x", int64(i)*-3, int64(shape), shape))
		}
	}
}

// FuzzDetectResponseEncode: appendDetectResponse writes the bytes
// json.Encoder writes, for any strings, numbers and shape.
func FuzzDetectResponseEncode(f *testing.F) {
	for i, s := range encodeSeeds {
		f.Add(s, encodeSeeds[(i+3)%len(encodeSeeds)], "reason", int64(i), int64(-i), uint16(0x3fff))
		f.Add(s, "", "", int64(0), int64(1<<40), uint16(i*1234))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, n, m int64, shape uint16) {
		checkEncodeParity(t, fuzzResponse(a, b, c, n, m, shape))
	})
}

// sameFlight reports whether two requests must share a flight: every field
// but Trace equal, a nil and an empty table list alike.
func sameFlight(a, b DetectRequest) bool {
	return a.Database == b.Database && slices.Equal(a.Tables, b.Tables) && a.Pipelined == b.Pipelined &&
		a.DeadlineMillis == b.DeadlineMillis && a.ModelVersion == b.ModelVersion
}

// FuzzFlightKey: two requests share a flight key exactly when every field
// but Trace is equal, and the key opens with RouteKey() and a zero byte.
func FuzzFlightKey(f *testing.F) {
	f.Add("a/b", "", true, int64(0), 0, "a", "b", true, int64(0), 0, uint8(0))      // one route key
	f.Add("a", "b,c", false, int64(5), 1, "a", "b,c", false, int64(5), 1, uint8(2)) // equal
	f.Add("a\x00", "x", false, int64(0), 0, "a", "\x00x", false, int64(0), 0, uint8(0))
	f.Add("db", "t", false, int64(1), 2, "db", "t", false, int64(2), 1, uint8(0))
	f.Add("db", ",", false, int64(0), 0, "db", "", false, int64(0), 0, uint8(1<<6))
	f.Add("db", "x", true, int64(-1), -1, "db", "x", true, int64(-1), -1, uint8(0xff))
	f.Fuzz(func(t *testing.T, db1, t1 string, p1 bool, d1 int64, m1 int, db2, t2 string, p2 bool, d2 int64, m2 int, mut uint8) {
		tables := func(s string, empty bool) []string {
			if s != "" {
				return strings.Split(s, ",")
			}
			if empty {
				return []string{}
			}
			return nil
		}
		a := DetectRequest{Database: db1, Tables: tables(t1, mut&(1<<6) != 0), Pipelined: p1,
			DeadlineMillis: d1, ModelVersion: m1, Trace: mut&(1<<7) != 0}
		b := DetectRequest{Database: db2, Tables: tables(t2, false), Pipelined: p2,
			DeadlineMillis: d2, ModelVersion: m2, Trace: mut&(1<<5) != 0}
		if mut&1 != 0 {
			// b is a with one field taken from the second set.
			trace := b.Trace
			b = a
			b.Trace = trace
			switch (mut >> 1) % 5 {
			case 0:
				b.Database = db2
			case 1:
				b.Tables = tables(t2, false)
			case 2:
				b.Pipelined = p2
			case 3:
				b.DeadlineMillis = d2
			case 4:
				b.ModelVersion = m2
			}
		}
		ka, kb := string(appendFlightKey(nil, a)), string(appendFlightKey(nil, b))
		for _, r := range []struct {
			req DetectRequest
			key string
		}{{a, ka}, {b, kb}} {
			if !strings.HasPrefix(r.key, r.req.RouteKey()+"\x00") {
				t.Fatalf("key %q does not open with route key %q", r.key, r.req.RouteKey())
			}
		}
		if (ka == kb) != sameFlight(a, b) {
			t.Fatalf("keys equal %v, requests equal %v:\n%#v\n%#v", ka == kb, sameFlight(a, b), a, b)
		}
	})
}

// TestDetectBodyOverCapIs413: a body whose JSON runs past MaxBodyBytes is
// refused with 413, sized or chunked, as the coordinator refuses it; one of
// exactly MaxBodyBytes is still read and answered.
func TestDetectBodyOverCapIs413(t *testing.T) {
	svc, _ := testService(t)
	h := svc.Handler()
	body := func(size int) string {
		return fmt.Sprintf(`{"database":%q}`, strings.Repeat("x", size-len(`{"database":""}`)))
	}
	for _, tc := range []struct {
		name    string
		size    int
		chunked bool
		want    int
	}{
		{"sized over the cap", MaxBodyBytes + 1, false, http.StatusRequestEntityTooLarge},
		{"chunked over the cap", MaxBodyBytes + 1, true, http.StatusRequestEntityTooLarge},
		{"sized at the cap", MaxBodyBytes, false, http.StatusNotFound},
		{"chunked at the cap", MaxBodyBytes, true, http.StatusNotFound},
	} {
		b := body(tc.size)
		if len(b) != tc.size {
			t.Fatalf("%s: body is %d bytes, want %d", tc.name, len(b), tc.size)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(b))
		if tc.chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// TestRepeatedTableIsTheFirstRepeat: the duplicate check names the first
// table an earlier one repeats.
func TestRepeatedTableIsTheFirstRepeat(t *testing.T) {
	svc, _ := testService(t)
	for tables, want := range map[string]string{"a,b,a,b": "a", "a,b,b,a": "b", "x,y,z,z": "z"} {
		_, apiErr := svc.Detect(context.Background(), DetectRequest{Database: "tenantdb", Tables: strings.Split(tables, ",")})
		if apiErr == nil || apiErr.Status != http.StatusBadRequest || apiErr.Msg != fmt.Sprintf("table %q named twice", want) {
			t.Errorf("%s: %v, want 400 naming %q", tables, apiErr, want)
		}
	}
}

// TestManyDistinctTablesAnswerFast: 50 000 distinct names (a ≈ 0.5 MB body)
// are checked for repeats in one pass, so an unknown database answers 404
// well inside 2 s.
func TestManyDistinctTablesAnswerFast(t *testing.T) {
	svc, _ := testService(t)
	names := make([]string, 50000)
	for i := range names {
		names[i] = fmt.Sprintf("table_%d", i)
	}
	body, err := json.Marshal(DetectRequest{Database: "ghost", Tables: names})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body)))
	took := time.Since(start)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
	}
	if took > 2*time.Second {
		t.Fatalf("50 000 distinct tables took %v, want < 2s", took)
	}
}

// TestCachedDetectRequestAllocs: one /v1/detect the result tier answers,
// through the HTTP handler on a zero-latency tenant with a single-table
// body, allocates at most 22 times, the test's own request and recorder
// included (18 of them, with the recorder's header map). Of the handler's
// own, the request's database and table names and the table list are
// what it parsed; core's table memo answers with no key string (its own
// key is built on the stack, the rows' keys are the memo's); the flight is keyed in
// a stack buffer and its record recycled, the response is built in the
// storage of the last one and written from a pooled buffer, and the detect
// reuses the last detect's storage (DetectTable's test lists it). A ceiling
// at the count keeps a new per-request allocation from going unnoticed.
func TestCachedDetectRequestAllocs(t *testing.T) {
	post, det := cachedDetectPost(t)
	hits := det.Results().Stats().Hits
	runs := 20
	if raceEnabled {
		// Many runs keep the average near its expectation (see below).
		runs = 400
	}
	allocs := testing.AllocsPerRun(runs, post)
	if det.Results().Stats().Hits == hits {
		t.Fatal("the repeat detects never hit the result tier")
	}
	t.Logf("%.0f allocations per cached /v1/detect", allocs)
	ceiling := 22.0
	if raceEnabled {
		// The race detector drops a quarter of sync.Pool's Puts, and a
		// request whose storage was dropped allocates all of it anew: about
		// 10 more per request over 400 runs.
		ceiling += 13
	}
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per cached /v1/detect, want ≤ %.0f", allocs, ceiling)
	}
}

// BenchmarkCachedDetectRequest times one /v1/detect the result tier
// answers, through the HTTP handler.
func BenchmarkCachedDetectRequest(b *testing.B) {
	post, _ := cachedDetectPost(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// cachedDetectPost returns a function that posts one single-table detect to
// a service whose detector keeps a result tier, warmed by one first post.
func cachedDetectPost(tb testing.TB) (func(), *core.Detector) {
	tb.Helper()
	_, ds := testService(tb)
	opts := core.DefaultOptions()
	opts.ResultCacheBytes = 16 << 20
	det, err := core.NewDetector(shared.det.Model(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	svc := New(det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", ds.Test)
	svc.RegisterTenant("tenantdb", server)
	h := svc.Handler()
	body := fmt.Sprintf(`{"database":"tenantdb","tables":[%q]}`, ds.Test[0].Name)
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	return post, det
}
