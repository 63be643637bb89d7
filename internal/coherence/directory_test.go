package coherence

import (
	"fmt"
	"math/rand"
	"testing"
)

// mapDirectory is the directory by definition: a map from line to a
// heap-allocated entry, created on first touch and deleted when its
// sharer set and owner both empty out. It is the oracle the
// open-addressed Directory table is driven against.
type mapDirectory struct {
	entries    map[int64]*dirEntry
	Writebacks uint64
}

func (d *mapDirectory) entry(line int64) *dirEntry {
	e := d.entries[line]
	if e == nil {
		e = &dirEntry{owner: noOwner}
		d.entries[line] = e
	}
	return e
}

func (d *mapDirectory) DropSharer(chip int, line int64) {
	e := d.entries[line]
	if e == nil {
		return
	}
	e.sharers &^= 1 << uint(chip)
	if int(e.owner) == chip {
		e.owner = noOwner
		d.Writebacks++
	}
	if e.sharers == 0 && e.owner == noOwner {
		delete(d.entries, line)
	}
}

func (d *mapDirectory) Sharers(line int64) (mask uint32, owner int) {
	e := d.entries[line]
	if e == nil {
		return 0, noOwner
	}
	return e.sharers, int(e.owner)
}

// checkTable compares the whole table against the oracle: the same
// tracked lines with the same sharers and owner, and live/dead counters
// that match the slot states (a drifting tombstone count changes when
// the table rehashes, which a checkpoint restored mid-run would not
// reproduce).
func checkTable(tab *Directory, ref *mapDirectory) error {
	full, dead := 0, 0
	for i := range tab.slots {
		s := &tab.slots[i]
		switch s.state {
		case slotDead:
			dead++
		case slotFull:
			full++
			if e := ref.entries[s.line]; e == nil || *e != s.e {
				return fmt.Errorf("line %#x: table holds %+v, oracle %+v", s.line, s.e, e)
			}
		}
	}
	if full != len(ref.entries) || tab.live != full || tab.dead != dead || tab.Lines() != full {
		return fmt.Errorf("table has %d full and %d dead slots, counts live=%d dead=%d; oracle tracks %d lines",
			full, dead, tab.live, tab.dead, len(ref.entries))
	}
	return nil
}

// TestDirectoryMapTableDifferential drives the open-addressed table
// and the map oracle with the same seeded op streams: installs (a chip
// starts caching a line, sometimes taking dirty ownership as an
// exclusive fetch does) and DropSharer evictions over a line population
// that drifts, so the table grows, fills with tombstones, reuses them
// and rehashes at the same size. Sharers and Writebacks are compared
// per op, the whole table against the oracle periodically and at the
// end.
func TestDirectoryMapTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewDirectory(4, 4096)
		ref := &mapDirectory{entries: map[int64]*dirEntry{}}
		startSlots := len(tab.slots)
		reusedTombstone := false
		base := int64(0)
		for op := 0; op < 40_000; op++ {
			if op%4000 == 3999 {
				base += 700 // the hot population moves on; old lines drain out
			}
			chip := rng.Intn(4)
			line := (base + int64(rng.Intn(900))) * 64
			what := fmt.Sprintf("seed %d op %d chip %d line %#x", seed, op, chip, line)
			if rng.Intn(5) < 2 {
				deadBefore := tab.dead
				a, b := tab.entry(line), ref.entry(line)
				if deadBefore > 1 && tab.dead == deadBefore-1 {
					reusedTombstone = true // a rehash would have cleared them all
				}
				exclusive := rng.Intn(3) == 0
				for _, e := range []*dirEntry{a, b} {
					if exclusive {
						e.sharers = 1 << uint(chip)
						e.owner = int8(chip)
					} else {
						e.sharers |= 1 << uint(chip)
					}
				}
			} else {
				// Evictions sweep every chip often enough to empty entries.
				last := chip + rng.Intn(4)
				for c := chip; c < 4 && c <= last; c++ {
					tab.DropSharer(c, line)
					ref.DropSharer(c, line)
				}
			}
			m1, o1 := tab.Sharers(line)
			m2, o2 := ref.Sharers(line)
			if m1 != m2 || o1 != o2 || tab.Lines() != len(ref.entries) || tab.Writebacks != ref.Writebacks {
				t.Fatalf("%s: table sharers %b owner %d lines %d writebacks %d, oracle %b %d %d %d",
					what, m1, o1, tab.Lines(), tab.Writebacks, m2, o2, len(ref.entries), ref.Writebacks)
			}
			if op%500 == 0 {
				if err := checkTable(tab, ref); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
		if err := checkTable(tab, ref); err != nil {
			t.Fatalf("seed %d, end of stream: %v", seed, err)
		}
		if len(tab.slots) == startSlots || !reusedTombstone || ref.Writebacks == 0 {
			t.Errorf("seed %d: stream is vacuous: table %d→%d slots, tombstone reused %v, %d writebacks",
				seed, startSlots, len(tab.slots), reusedTombstone, ref.Writebacks)
		}
	}
}
