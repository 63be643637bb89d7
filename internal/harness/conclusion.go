package harness

import (
	"context"
	"fmt"
	"strings"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// RenderMatrix formats the figure as one line per application: its
// normalized time on each architecture, then the winner (Best). It is
// the form of the paper's §5.2/§6 conclusion table.
func (f *Figure) RenderMatrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-8s", "app")
	for _, a := range f.Archs {
		fmt.Fprintf(&b, "%8s", a)
	}
	fmt.Fprintf(&b, "  winner\n")
	for _, app := range f.Apps {
		fmt.Fprintf(&b, "%-8s", app)
		for _, a := range f.Archs {
			fmt.Fprintf(&b, "%8.0f", f.Get(app, a).Normalized)
		}
		fmt.Fprintf(&b, "  %s\n", f.Best(app))
	}
	return b.String()
}

// clockFor maps a figure arch name to its clock factor.
func clockFor(name string) float64 {
	a, err := config.ArchByName(name)
	if err != nil {
		panic(err)
	}
	return a.ClockFactor()
}

// AdjustClock returns fig under the cycle-time model behind the
// paper's conclusion (Palacharla/Jouppi): every row keeps its raw
// Cycles and Breakdown, and its Normalized becomes the wall-clock
// proxy — cycles divided by the architecture's relative clock
// frequency — relative to the baseline architecture's ×100, so Best
// and BestFA rank by wall clock. The equal-cycle-time charts show SMT2
// within a few percent of SMT1; once 4-issue clusters get their ~2×
// clock advantage, SMT2 dominates outright — "the hybrid organization
// is the most cost-effective one."
func AdjustClock(fig *Figure) *Figure {
	adj := *fig
	adj.Title = fig.Title + " — cycle-time adjusted (4-issue clusters at 2x the 8-issue clock)"
	adj.Rows = make([]Row, len(fig.Rows))
	for i, r := range fig.Rows {
		base := float64(fig.Get(r.App, fig.Baseline).Cycles) / clockFor(fig.Baseline)
		r.Normalized = 100 * (float64(r.Cycles) / clockFor(r.Arch)) / base
		adj.Rows[i] = r
	}
	return &adj
}

// Conclusion runs the full Table 2 set on one machine and returns the
// cycle-time-adjusted comparison across all seven architectures — the
// paper's bottom line in one table (RenderMatrix).
func (s *Suite) Conclusion(ctx context.Context, highEnd bool) (*Figure, error) {
	apps := workloads.All()
	archs := []config.Arch{config.FA8, config.FA4, config.FA2, config.FA1,
		config.SMT4, config.SMT2, config.SMT1}
	res, err := s.RunMatrixContext(ctx, apps, archs, highEnd)
	if err != nil {
		return nil, err
	}
	c := AdjustClock(buildFigure("All architectures", apps, archs, res))
	machine := "low-end"
	if highEnd {
		machine = "high-end"
	}
	c.Title = fmt.Sprintf("Conclusion (%s machine): execution time with the §5.2 cycle-time model, normalized to FA8 = 100", machine)
	return c, nil
}
