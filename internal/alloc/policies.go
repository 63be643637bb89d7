package alloc

// The built-in policies. The two that migrate share one safety shape:
// at most one migration per epoch (the core drains the thread's
// window and charges a cold start, so batching moves would stack
// penalties faster than feedback can judge them), a two-epoch
// hysteresis per thread, and a strict improvement guard (source must
// hold at least two more live threads than the destination) so a
// policy converges instead of oscillating: every accepted move shrinks
// the live-count imbalance by two.

// hysteresisEpochs is how many epochs a migrated thread is ineligible
// to move again — long enough for its post-move feedback to be real.
const hysteresisEpochs = 2

func init() {
	Register("static", nil) // the seed placement, never migrates: the paper's configuration
	Register("icount", ICount)
	Register("symbiosis", Symbiosis)
}

// pickVictim chooses which thread to move off cluster src: the live,
// unblocked thread with the least epoch progress (it has the least
// cache and window state to lose), skipping recently migrated threads.
// Ties break on the lower thread ID. Returns -1 when nothing on src is
// movable.
func pickVictim(s *Snapshot, src int) int {
	victim, victimCommitted := -1, uint64(0)
	for _, t := range s.Threads {
		if t.Cluster != src || t.Finished || t.Blocked {
			continue
		}
		if t.SinceMigrate >= 0 && t.SinceMigrate < hysteresisEpochs {
			continue
		}
		if victim == -1 || t.Committed < victimCommitted {
			victim, victimCommitted = t.ID, t.Committed
		}
	}
	return victim
}

// ICount rebalances toward the cluster with the fewest in-flight
// instructions, the classic ICOUNT signal lifted from fetch policy to
// placement.
func ICount(s *Snapshot) []Migration {
	if len(s.Clusters) < 2 {
		return nil
	}
	src, dst := -1, -1
	for i, c := range s.Clusters {
		// Destination: spare capacity, fewest in-flight instructions
		// (ties: fewer live threads, then lower GID).
		if c.Threads < c.Capacity {
			if dst == -1 || less(c, s.Clusters[dst]) {
				dst = i
			}
		}
		// Source: most in-flight instructions (ties: more live
		// threads, then lower GID).
		if src == -1 || less(s.Clusters[src], c) {
			src = i
		}
	}
	if src == -1 || dst == -1 || src == dst {
		return nil
	}
	sc, dc := s.Clusters[src], s.Clusters[dst]
	// Improvement guard: the move must strictly shrink the live-count
	// imbalance, and the in-flight signal must agree.
	if sc.Threads < dc.Threads+2 || sc.InFlight <= dc.InFlight {
		return nil
	}
	victim := pickVictim(s, sc.GID)
	if victim == -1 {
		return nil
	}
	return []Migration{{Thread: victim, To: dc.GID}}
}

// less orders clusters by (InFlight, Threads, GID) — the ICOUNT
// preference order for destinations; sources use its inverse.
func less(a, b ClusterSample) bool {
	if a.InFlight != b.InFlight {
		return a.InFlight < b.InFlight
	}
	if a.Threads != b.Threads {
		return a.Threads < b.Threads
	}
	return a.GID < b.GID
}

// pressure is the chip-level antagonism score: L2 misses are the
// expensive events, L1 misses the early signal, and the MSHR
// occupancy at the boundary shows how saturated the miss machinery is.
func pressure(c ClusterSample) uint64 {
	return c.L1Misses + 8*c.L2Misses + c.MSHROccupancy
}

// Symbiosis groups cache-antagonistic threads apart: it scores each
// chip's memory pressure from the epoch's L1/L2 miss and MSHR-
// occupancy deltas and moves one thread from the most-pressured chip
// to the least-pressured chip with spare capacity. Caches are per
// chip, so only cross-chip moves change cache behavior; on a
// single-chip machine (or when pressure is flat) it falls back to
// ICOUNT-style live-count balancing so gross imbalance never survives
// just because the memory system is quiet.
func Symbiosis(s *Snapshot) []Migration {
	if len(s.Clusters) < 2 {
		return nil
	}
	// Chip-level view: pressure is repeated on every cluster of a
	// chip; live counts sum.
	type chipView struct {
		chip     int
		pressure uint64
		live     int
	}
	var chips []chipView
	byChip := map[int]int{}
	for _, c := range s.Clusters {
		i, ok := byChip[c.Chip]
		if !ok {
			i = len(chips)
			byChip[c.Chip] = i
			chips = append(chips, chipView{chip: c.Chip, pressure: pressure(c)})
		}
		chips[i].live += c.Threads
	}
	if len(chips) > 1 {
		hot, cold := 0, 0
		for i := 1; i < len(chips); i++ {
			if chips[i].pressure > chips[hot].pressure ||
				(chips[i].pressure == chips[hot].pressure && chips[i].chip < chips[hot].chip) {
				hot = i
			}
			if chips[i].pressure < chips[cold].pressure ||
				(chips[i].pressure == chips[cold].pressure && chips[i].chip < chips[cold].chip) {
				cold = i
			}
		}
		// Antagonists only exist where at least two threads share the
		// hot chip's caches; the count guard keeps the move convergent.
		if hot != cold && chips[hot].pressure > chips[cold].pressure &&
			chips[hot].live >= 2 && chips[hot].live >= chips[cold].live+2 {
			if m := crossChipMove(s, chips[hot].chip, chips[cold].chip); m != nil {
				return m
			}
		}
	}
	// Fallback: plain live-count balancing (chip-agnostic).
	return ICount(s)
}

// crossChipMove picks the busiest source cluster on the hot chip and
// the emptiest destination cluster with capacity on the cold chip.
func crossChipMove(s *Snapshot, hotChip, coldChip int) []Migration {
	src, dst := -1, -1
	for i, c := range s.Clusters {
		if c.Chip == hotChip && c.Threads > 0 {
			if src == -1 || less(s.Clusters[src], c) {
				src = i
			}
		}
		if c.Chip == coldChip && c.Threads < c.Capacity {
			if dst == -1 || less(c, s.Clusters[dst]) {
				dst = i
			}
		}
	}
	if src == -1 || dst == -1 {
		return nil
	}
	victim := pickVictim(s, s.Clusters[src].GID)
	if victim == -1 {
		return nil
	}
	return []Migration{{Thread: victim, To: s.Clusters[dst].GID}}
}
