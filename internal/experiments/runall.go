package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Names of the runnable experiments, in presentation order.
var AllExperiments = []string{"table2", "fig4", "table3", "table4", "fig5", "fig6", "fig7", "fig8", "table7", "ablations", "extras"}

// Run executes one named experiment, or every experiment for "all", and
// writes the reports to w. Names are case-insensitive.
func (s *Suite) Run(name string, w io.Writer) error {
	switch strings.ToLower(name) {
	case "all":
		return s.RunAll(w)
	case "table2":
		fmt.Fprintln(w, s.Table2())
	case "fig4":
		fmt.Fprintln(w, s.Fig4())
	case "table3":
		fmt.Fprintln(w, s.Table3())
	case "table4":
		fmt.Fprintln(w, s.Table4())
	case "fig5":
		fmt.Fprintln(w, s.Fig5())
	case "fig6":
		fmt.Fprintln(w, s.Fig6(nil))
	case "fig7":
		fmt.Fprintln(w, s.Fig7(nil))
	case "fig8":
		fmt.Fprintln(w, s.Fig8(nil, nil))
	case "table7":
		return s.TraceBreakdown(w)
	case "ablations":
		fmt.Fprintln(w, s.Ablations())
	case "extras":
		fmt.Fprintln(w, s.Extras())
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have all, %s)", name, strings.Join(AllExperiments, ", "))
	}
	return nil
}

// RunAll executes every experiment in order, writing reports to w.
func (s *Suite) RunAll(w io.Writer) error {
	for _, name := range AllExperiments {
		if err := s.Run(name, w); err != nil {
			return err
		}
	}
	return nil
}
