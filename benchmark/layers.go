package main

import (
	"math/rand"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
)

// replayMemory drives a seeded address trace straight through the
// timing memory system, outside any pipeline, and returns host
// nanoseconds per access. With one chip it exercises memsys alone
// (caches, banks, MSHRs, TLB; the directory only sees private lines);
// with four, half the accesses go to lines every chip shares, a third
// of them stores, so the directory and the interconnect carry
// invalidations, downgrades and three-hop fetches.
func replayMemory(e *env, chips int) float64 {
	n := 600_000
	if e.smoke {
		n = 20_000
	}
	type access struct {
		chip  int
		addr  int64
		store bool
	}
	rng := rand.New(rand.NewSource(e.seed))
	const line = 64
	// Working sets against the modelled 64 KB L1 and 1 MB L2.
	region := func() int64 {
		switch p := rng.Intn(100); {
		case p < 70:
			return 32 << 10
		case p < 92:
			return 512 << 10
		}
		return 8 << 20
	}
	trace := make([]access, n)
	for i := range trace {
		chip := i % chips
		a := access{chip: chip, store: rng.Intn(10) < 3}
		off := rng.Int63n(region()/line) * line
		if chips > 1 && rng.Intn(2) == 0 {
			a.addr = 1<<30 + off%(256<<10) // shared by every chip
		} else {
			a.addr = int64(chip+1)<<26 + off
		}
		trace[i] = a
	}
	sys := coherence.NewSystem(chips, config.DefaultMem())
	name := "coherence.System.Load/Store"
	d := e.tr.timed(name, map[bool]string{true: "1 chip", false: "4 chips"}[chips == 1], -1, 0, func() {
		now := int64(0)
		for _, a := range trace {
			now++
			if a.store {
				sys.Store(now, a.chip, a.addr)
				continue
			}
			for {
				if _, _, ok := sys.Load(now, a.chip, a.addr); ok {
					break
				}
				now += 8 // MSHR file full: retry later, as the pipeline does
			}
		}
	})
	return float64(d) / float64(n)
}
