// CheckText: a minimal Prometheus text-format validator. It exists so the
// repo's tests (obs race tests, the service /metrics test, the CI smoke
// script via `tastebench`-less curl|grep) can assert a scrape is well formed
// without importing a Prometheus client library.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckText validates a Prometheus text exposition: every line is a TYPE
// header or a `series value` sample, every sample's metric name carries a
// TYPE, histogram buckets are cumulative (non-decreasing in `le` order),
// and each histogram's +Inf bucket equals its _count. Returns the first
// violation found, nil when the text is well formed.
func CheckText(text string) error {
	types := make(map[string]string)
	// bucketRows[base][labelIdentity] collects (le, value) pairs;
	// counts[base][labelIdentity] and sums hold _count/_sum samples.
	bucketRows := make(map[string]map[string][][2]float64)
	counts := make(map[string]map[string]float64)
	sums := make(map[string]map[string]bool)

	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[3])
			}
			if prev, ok := types[fields[2]]; ok && prev != fields[3] {
				return fmt.Errorf("line %d: metric %s re-typed %s -> %s", ln+1, fields[2], prev, fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln+1, err)
		}
		base, sub := histBase(name, types)
		if typ, ok := types[base]; !ok {
			return fmt.Errorf("line %d: sample %s has no TYPE header", ln+1, name)
		} else if typ == "counter" && value < 0 {
			return fmt.Errorf("line %d: counter %s is negative (%v)", ln+1, name, value)
		}
		switch sub {
		case "bucket":
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: bucket sample without le label", ln+1)
			}
			ident := labelIdentity(labels, "le")
			leVal := math.Inf(1)
			if le != "+Inf" {
				if leVal, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bad le %q", ln+1, le)
				}
			}
			if bucketRows[base] == nil {
				bucketRows[base] = make(map[string][][2]float64)
			}
			bucketRows[base][ident] = append(bucketRows[base][ident], [2]float64{leVal, value})
		case "count":
			ident := labelIdentity(labels)
			if counts[base] == nil {
				counts[base] = make(map[string]float64)
			}
			counts[base][ident] = value
		case "sum":
			ident := labelIdentity(labels)
			if sums[base] == nil {
				sums[base] = make(map[string]bool)
			}
			sums[base][ident] = true
		}
	}

	for base, byIdent := range bucketRows {
		for ident, rows := range byIdent {
			sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
			last := math.Inf(-1)
			prev := -1.0
			for _, r := range rows {
				if r[0] <= last {
					return fmt.Errorf("histogram %s{%s}: duplicate le %v", base, ident, r[0])
				}
				last = r[0]
				if prev >= 0 && r[1] < prev {
					return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative (%v after %v)", base, ident, r[1], prev)
				}
				prev = r[1]
			}
			inf := rows[len(rows)-1]
			if !math.IsInf(inf[0], 1) {
				return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", base, ident)
			}
			cnt, ok := counts[base][ident]
			if !ok {
				return fmt.Errorf("histogram %s{%s}: missing _count", base, ident)
			}
			if cnt != inf[1] {
				return fmt.Errorf("histogram %s{%s}: _count %v != +Inf bucket %v", base, ident, cnt, inf[1])
			}
			if !sums[base][ident] {
				return fmt.Errorf("histogram %s{%s}: missing _sum", base, ident)
			}
		}
	}
	return nil
}

// parseSample splits `name{k="v",...} value` into parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		for _, pair := range splitLabels(line[i+1 : j]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			v, err := strconv.Unquote(pair[eq+1:])
			if err != nil {
				return "", nil, 0, fmt.Errorf("bad label value %q", pair)
			}
			labels[pair[:eq]] = v
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q", line)
	}
	return name, labels, v, nil
}

// splitLabels splits a label body on commas outside quotes. Inside quotes a
// backslash escapes the next byte, so an escaped backslash before a closing
// quote does not keep the value open.
func splitLabels(s string) []string {
	var out []string
	quoted := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if quoted {
				i++
			}
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// histBase maps a histogram sub-series name to its base metric and kind.
func histBase(name string, types map[string]string) (base, sub string) {
	for _, suffix := range []string{"_bucket", "_count", "_sum"} {
		if strings.HasSuffix(name, suffix) {
			b := strings.TrimSuffix(name, suffix)
			if types[b] == "histogram" || types[b] == "summary" {
				return b, suffix[1:]
			}
		}
	}
	return name, ""
}

// labelIdentity renders labels (minus the listed keys) canonically, so
// bucket/count/sum series of one histogram child can be matched up.
func labelIdentity(labels map[string]string, drop ...string) string {
	keys := make([]string, 0, len(labels))
outer:
	for k := range labels {
		for _, d := range drop {
			if k == d {
				continue outer
			}
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return strings.Join(parts, ",")
}
