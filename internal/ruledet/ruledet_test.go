package ruledet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metrics"
)

func TestLuhn(t *testing.T) {
	valid := []string{"4539578763621486", "79927398713"}
	invalid := []string{"4539578763621487", "1234567812345678", "4111x11111111111"}
	for _, v := range valid {
		if !LuhnValid(v) {
			t.Fatalf("%s should pass Luhn", v)
		}
	}
	for _, v := range invalid {
		if LuhnValid(v) {
			t.Fatalf("%s should fail Luhn", v)
		}
	}
}

func TestDetectColumnEmail(t *testing.T) {
	d := Default()
	got := d.DetectColumn([]string{"a.smith@example.com", "wei.chen@mail.net", "x@y.io"})
	if !reflect.DeepEqual(got, []string{"email"}) {
		t.Fatalf("got %v", got)
	}
}

func TestDetectColumnThreshold(t *testing.T) {
	d := Default()
	// 2 of 3 values match (66 %) — below the 90 % default support.
	got := d.DetectColumn([]string{"a@b.com", "c@d.org", "not an email"})
	if got != nil {
		t.Fatalf("got %v, want nil below support threshold", got)
	}
	d.MinSupport = 0.5
	got = d.DetectColumn([]string{"a@b.com", "c@d.org", "not an email"})
	if !reflect.DeepEqual(got, []string{"email"}) {
		t.Fatalf("got %v", got)
	}
}

func TestDetectColumnIgnoresEmpties(t *testing.T) {
	d := Default()
	got := d.DetectColumn([]string{"", "a@b.com", "", "c@d.org", ""})
	if !reflect.DeepEqual(got, []string{"email"}) {
		t.Fatalf("got %v", got)
	}
	if d.DetectColumn([]string{"", "", ""}) != nil {
		t.Fatal("all-empty column must get no types")
	}
}

func TestPriorityTiers(t *testing.T) {
	d := Default()
	// Valid IPv4 values also satisfy nothing else; priority 3.
	got := d.DetectColumn([]string{"10.0.0.1", "192.168.1.254"})
	if !reflect.DeepEqual(got, []string{"ip_address"}) {
		t.Fatalf("got %v", got)
	}
	// Out-of-range octets fail the semantic validator.
	if got := d.DetectColumn([]string{"999.999.999.999"}); got != nil {
		t.Fatalf("got %v for invalid IPs", got)
	}
}

func TestIPv4Validation(t *testing.T) {
	if !validIPv4("1.2.3.4") || validIPv4("256.1.1.1") || validIPv4("1.2.3") {
		t.Fatal("IPv4 validation wrong")
	}
}

func TestDateValidation(t *testing.T) {
	if !validDate("2024-02-28") || validDate("2024-13-01") || validDate("2024-01-32") || validDate("24-01-01") {
		t.Fatal("date validation wrong")
	}
}

func TestDictionaryRules(t *testing.T) {
	d := Default()
	cases := map[string][]string{
		"month":    {"january", "March", "december"},
		"weekday":  {"monday", "Sunday"},
		"currency": {"USD", "eur"},
		"gender":   {"male", "female", "unknown"},
	}
	for want, values := range cases {
		got := d.DetectColumn(values)
		if !reflect.DeepEqual(got, []string{want}) {
			t.Fatalf("%s: got %v", want, got)
		}
	}
}

// TestAgainstGeneratedCorpus measures the rule detector on generated
// columns: pattern-protocol types must be detected with high precision;
// free-text types (names, cities, …) are simply out of reach — the
// limitation that motivates learned detection.
func TestAgainstGeneratedCorpus(t *testing.T) {
	reg := corpus.DefaultRegistry()
	d := Default()
	rng := rand.New(rand.NewSource(1))
	covered := map[string]bool{}
	for _, r := range DefaultRules() {
		covered[r.Type] = true
	}
	acc := metrics.NewF1Accumulator()
	for _, typ := range reg.Types() {
		values := make([]string, 30)
		for i := range values {
			values[i] = typ.Gen(rng)
		}
		got := d.DetectColumn(values)
		var want []string
		if covered[typ.Name] {
			want = []string{typ.Name}
		}
		acc.Add(got, want)
	}
	// Precision must be decent (patterns rarely fire falsely); recall over
	// covered types must be high.
	if p := acc.Precision(); p < 0.7 {
		t.Fatalf("rule precision %.3f too low", p)
	}
	if r := acc.Recall(); r < 0.8 {
		t.Fatalf("rule recall over covered types %.3f too low", r)
	}
}

// TestRuleDetectorMissesFreeText documents the core limitation: dictionary
// and regex rules cannot label free-text types.
func TestRuleDetectorMissesFreeText(t *testing.T) {
	reg := corpus.DefaultRegistry()
	d := Default()
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"city", "company", "job_title", "album"} {
		typ := reg.Subset([]string{name}).Types()[0]
		values := make([]string, 20)
		for i := range values {
			values[i] = typ.Gen(rng)
		}
		if got := d.DetectColumn(values); len(got) > 0 {
			t.Fatalf("rule detector should not label %s, got %v", name, got)
		}
	}
}
