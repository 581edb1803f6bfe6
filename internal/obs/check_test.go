package obs

import (
	"strings"
	"testing"
)

// FuzzCheckText: CheckText returns on any input without panicking, and it
// accepts every exposition WritePrometheus renders — here a counter, a
// gauge and a histogram whose label values are the fuzzed strings.
func FuzzCheckText(f *testing.F) {
	f.Add("# TYPE a_total counter\na_total 1\n", "ok", "s1", 0.5)
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "", "", -1.0)
	f.Add("x{a=\"b\\\\\",c=\"d\"} 1", "b\\", "d", 2.0)
	f.Add("x{a=\"}\"} 1\n# TYPE x gauge", "a\"b,c=\"d", "\n}{", 1e300)
	f.Fuzz(func(t *testing.T, text, v1, v2 string, observed float64) {
		_ = CheckText(text)

		r := NewRegistry()
		r.Counter("reqs_total", "outcome", v1, "tenant", v2).Inc()
		r.Gauge("queue_depth", "queue", v1).Set(3)
		r.Histogram("lat_seconds", []float64{0.1, 1}, "stage", v1, "tenant", v2).Observe(observed)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if err := CheckText(b.String()); err != nil {
			t.Fatalf("CheckText rejects WritePrometheus output: %v\n%s", err, b.String())
		}
	})
}
