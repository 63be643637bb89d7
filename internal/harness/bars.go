package harness

import (
	"fmt"
	"sort"
	"strings"

	"clustersmt/internal/stats"
)

// barGlyphs maps each slot category to the letter used in the stacked
// bars, in legend order (the paper's Figures 4/5/7/8 are stacked bar
// charts of exactly these categories).
var barGlyphs = [stats.NumCategories]byte{'U', 'f', 's', 'c', 'd', 'm', 'x', 'o'}

// RenderBars draws the figure as paper-style horizontal stacked bars:
// each architecture's bar length is its normalized execution time, and
// the bar is segmented by where the issue slots went
// (U=useful f=fetch s=sync c=control d=data m=memory x=structural
// o=other).
func (f *Figure) RenderBars() string {
	const scale = 0.5 // characters per normalized point
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "legend: U=useful f=fetch s=sync c=control d=data m=memory x=structural o=other\n\n")
	for _, app := range f.Apps {
		fmt.Fprintf(&b, "%s\n", app)
		for _, arch := range f.Archs {
			r := f.Get(app, arch)
			fmt.Fprintf(&b, "  %-5s %4.0f |%s|\n", r.Arch, r.Normalized,
				stackedBar(r.Breakdown, int(r.Normalized*scale+0.5)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// stackedBar renders width characters split across the categories in
// proportion to their fractions, using largest-remainder rounding so
// the segments sum to exactly width.
func stackedBar(fractions [stats.NumCategories]float64, width int) string {
	if width <= 0 {
		return ""
	}
	type seg struct {
		cat  int
		frac float64
		n    int
		rem  float64
	}
	segs := make([]seg, stats.NumCategories)
	total := 0.0
	for i, fr := range fractions {
		segs[i] = seg{cat: i, frac: fr}
		total += fr
	}
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	used := 0
	for i := range segs {
		exact := segs[i].frac / total * float64(width)
		segs[i].n = int(exact)
		segs[i].rem = exact - float64(segs[i].n)
		used += segs[i].n
	}
	// Distribute the leftover characters to the largest remainders.
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return segs[order[a]].rem > segs[order[b]].rem
	})
	for i := 0; used < width; i++ {
		segs[order[i%len(order)]].n++
		used++
	}
	var b strings.Builder
	for _, s := range segs {
		if s.n > 0 {
			b.WriteString(strings.Repeat(string(barGlyphs[s.cat]), s.n))
		}
	}
	return b.String()
}
