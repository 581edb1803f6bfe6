package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simdb"
)

// phaseDesc names the four stage prefixes used by core's span
// instrumentation ("s<N>:<table>").
var phaseDesc = map[string]string{
	"s1": "P1 prep  (metadata fetch)",
	"s2": "P1 infer (meta ADTD)",
	"s3": "P2 prep  (content scan)",
	"s4": "P2 infer (content ADTD)",
}

// TraceBreakdown runs one traced pipelined detection over the Wiki test
// split and prints the per-phase latency split in the spirit of the paper's
// Table 7 (experiment "table7"): where a detection request actually spends
// its time. Phase totals are summed across tables, so with the pipelined
// scheduler they exceed the wall time — that overlap is exactly what §5
// buys.
func (s *Suite) TraceBreakdown(w io.Writer) error {
	model := s.TasteModel(Wiki, false)
	det, err := core.NewDetector(model, s.options(DefaultTaste()))
	if err != nil {
		return err
	}
	ds := s.Dataset(Wiki)
	server := simdb.NewServer(simdb.PaperLatency(s.Cfg.LatencyScale))
	server.LoadTables("tenant", ds.Test)

	ctx, root := obs.NewTrace(context.Background(), "detect tenant")
	rep, err := det.DetectDatabase(ctx, server, "tenant", core.PipelinedMode())
	if err != nil {
		return err
	}
	root.End()
	node := root.Node()

	type phase struct {
		spans int
		total time.Duration
		max   time.Duration
	}
	phases := map[string]*phase{}
	node.Walk(func(n obs.SpanNode) {
		name := n.Name
		if i := strings.IndexByte(name, ':'); i > 0 {
			name = name[:i]
		} else if name == node.Name {
			return // the root itself
		}
		p := phases[name]
		if p == nil {
			p = &phase{}
			phases[name] = p
		}
		p.spans++
		d := time.Duration(n.DurationMicros) * time.Microsecond
		p.total += d
		if d > p.max {
			p.max = d
		}
	})

	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	wall := time.Duration(node.DurationMicros) * time.Microsecond
	fmt.Fprintf(w, "Per-phase latency breakdown (cf. Table 7) — %d tables, %d columns, wall %v\n",
		len(rep.Tables), rep.TotalColumns, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "%-6s %-28s %6s %12s %12s %12s %9s\n",
		"phase", "what", "spans", "total", "mean", "max", "of wall")
	for _, k := range keys {
		p := phases[k]
		desc := phaseDesc[k]
		if desc == "" {
			desc = k
		}
		mean := p.total / time.Duration(p.spans)
		fmt.Fprintf(w, "%-6s %-28s %6d %12v %12v %12v %8.1f%%\n",
			k, desc, p.spans,
			p.total.Round(10*time.Microsecond), mean.Round(10*time.Microsecond),
			p.max.Round(10*time.Microsecond), 100*float64(p.total)/float64(wall))
	}
	fmt.Fprintf(w, "(phase totals sum across tables; >100%% of wall means the pipeline overlapped them)\n")
	return nil
}
