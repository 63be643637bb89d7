package harness

import (
	"context"
	"fmt"
	"strings"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// ConclusionRow is one (app × arch) cell of the cycle-time-adjusted
// comparison behind the paper's §5.2/§6 conclusion.
type ConclusionRow struct {
	App  string
	Arch string
	// Cycles is the raw simulated cycle count.
	Cycles int64
	// AdjustedTime is cycles divided by the architecture's relative
	// clock frequency (Palacharla/Jouppi cycle-time model): the
	// wall-clock proxy the paper's conclusion rests on.
	AdjustedTime float64
	// Normalized is AdjustedTime relative to the figure baseline ×100.
	Normalized float64
}

// Conclusion is the cycle-time-adjusted version of a Figure 4/5/7/8
// comparison. The equal-cycle-time charts show SMT2 within a few
// percent of SMT1; once 4-issue clusters get their ~2× clock advantage,
// SMT2 dominates outright — "the hybrid organization is the most
// cost-effective one."
type Conclusion struct {
	Title string
	Apps  []string
	Archs []string
	Rows  []ConclusionRow
}

// Get returns the row for (app, arch); panics on unknown names.
func (c *Conclusion) Get(app, arch string) ConclusionRow {
	for _, r := range c.Rows {
		if r.App == app && r.Arch == arch {
			return r
		}
	}
	panic(fmt.Sprintf("harness: conclusion %q has no row (%s, %s)", c.Title, app, arch))
}

// Best returns the architecture with the lowest adjusted time for app.
func (c *Conclusion) Best(app string) string {
	best, bestTime := "", 0.0
	for _, r := range c.Rows {
		if r.App != app {
			continue
		}
		if best == "" || r.AdjustedTime < bestTime {
			best, bestTime = r.Arch, r.AdjustedTime
		}
	}
	return best
}

// Render formats the adjusted comparison.
func (c *Conclusion) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	fmt.Fprintf(&b, "%-8s", "app")
	for _, a := range c.Archs {
		fmt.Fprintf(&b, "%8s", a)
	}
	fmt.Fprintf(&b, "  winner\n")
	for _, app := range c.Apps {
		fmt.Fprintf(&b, "%-8s", app)
		for _, a := range c.Archs {
			fmt.Fprintf(&b, "%8.0f", c.Get(app, a).Normalized)
		}
		fmt.Fprintf(&b, "  %s\n", c.Best(app))
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

// AdjustClock converts a figure to the cycle-time-adjusted comparison:
// each architecture's cycles are divided by its relative clock
// frequency and renormalized to the baseline architecture.
func AdjustClock(fig *Figure) *Conclusion {
	c := &Conclusion{
		Title: fig.Title + " — cycle-time adjusted (4-issue clusters at 2x the 8-issue clock)",
		Apps:  fig.Apps,
		Archs: fig.Archs,
	}
	for _, app := range fig.Apps {
		base := float64(fig.Get(app, fig.Baseline).Cycles) / clockFor(fig.Baseline)
		for _, arch := range fig.Archs {
			r := fig.Get(app, arch)
			adj := float64(r.Cycles) / clockFor(arch)
			c.Rows = append(c.Rows, ConclusionRow{
				App:          app,
				Arch:         arch,
				Cycles:       r.Cycles,
				AdjustedTime: adj,
				Normalized:   100 * adj / base,
			})
		}
	}
	return c
}

// Conclusion runs the full Table 2 set on the low-end machine and
// returns the cycle-time-adjusted comparison across all seven
// architectures — the paper's bottom line in one table.
func (s *Suite) Conclusion(ctx context.Context, highEnd bool) (*Conclusion, error) {
	apps := workloads.All()
	archs := []config.Arch{config.FA8, config.FA4, config.FA2, config.FA1,
		config.SMT4, config.SMT2, config.SMT1}
	res, err := s.RunMatrixContext(ctx, apps, archs, highEnd)
	if err != nil {
		return nil, err
	}
	fig := buildFigure("All architectures", apps, archs, res)
	c := AdjustClock(fig)
	machine := "low-end"
	if highEnd {
		machine = "high-end"
	}
	c.Title = fmt.Sprintf("Conclusion (%s machine): execution time with the §5.2 cycle-time model, normalized to FA8 = 100", machine)
	return c, nil
}
