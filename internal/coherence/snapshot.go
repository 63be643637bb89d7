package coherence

import (
	"fmt"
	"math"

	"clustersmt/internal/memsys"
	"clustersmt/internal/snap"
)

// Fork returns a clone of the memory system: cache tag arrays are
// shared copy-on-write (memsys.Cache.Fork); the directory table,
// network ports, TLBs, MSHRs and bank state are bounded-size and copied
// eagerly.
func (s *System) Fork() *System {
	cp := *s
	cp.Chips = make([]*memsys.Chip, len(s.Chips))
	for i, c := range s.Chips {
		cp.Chips[i] = c.Fork()
	}
	cp.Dir = s.Dir.Clone()
	cp.Net = s.Net.Clone()
	return &cp
}

// Clone returns an independent deep copy of the directory.
func (d *Directory) Clone() *Directory {
	cp := *d
	cp.slots = append([]dirSlot(nil), d.slots...)
	return &cp
}

// XferSnap transfers the directory's open-addressed table raw — slot
// positions, tombstones and all — so probe chains replay exactly, plus
// the protocol counters. Decoding overlays a fresh directory for the
// same chip count and derives the table geometry (hashShift, live,
// dead) from the slots.
func (d *Directory) XferSnap(x *snap.Xfer) {
	n := len(d.slots)
	if x.Count(&n, math.MaxInt, "coherence: directory table"); x.Decoding() {
		if n < dirMinSlots || n&(n-1) != 0 {
			x.Fail(fmt.Errorf("coherence: corrupt directory table size %d", n))
			return
		}
		d.initTable(n)
	}
	for i := range d.slots {
		s := &d.slots[i]
		x.I64(&s.line)
		x.U32(&s.e.sharers)
		owner := uint8(s.e.owner)
		x.U8(&owner)
		x.U8(&s.state)
		if !x.Decoding() {
			continue
		}
		if x.Err() != nil {
			return
		}
		s.e.owner = int8(owner)
		if s.state > slotDead {
			x.Fail(fmt.Errorf("coherence: invalid directory slot state %d", s.state))
			return
		}
		if s.state == slotFull {
			if d.nchips < 32 && s.e.sharers>>uint(d.nchips) != 0 {
				x.Fail(fmt.Errorf("coherence: sharer mask %#x exceeds %d chips", s.e.sharers, d.nchips))
				return
			}
			if s.e.owner != noOwner && (s.e.owner < 0 || int(s.e.owner) >= d.nchips) {
				x.Fail(fmt.Errorf("coherence: directory owner %d out of range", s.e.owner))
				return
			}
			d.live++
		} else if s.state == slotDead {
			d.dead++
		}
	}
	x.U64(&d.Invalidations)
	x.U64(&d.Downgrades)
	x.U64(&d.Writebacks)
	x.U64(&d.ThreeHops)
}

// XferSnap transfers the machine-wide counter block.
func (st *Stats) XferSnap(x *snap.Xfer) {
	x.U64(&st.Loads)
	x.U64(&st.Stores)
	x.U64(&st.LoadRetries)
	x.U64s(st.ByClass[:])
	x.U64s(st.LatencyByClass[:])
	x.U64(&st.StoreHits)
	x.U64(&st.StoreUpgrade)
	x.U64(&st.StoreMisses)
	x.U64(&st.TLBMisses)
}

// XferSnap transfers the counters and gauges of one snapshot (a
// sampler's or an allocation epoch's previous boundary, or a frame's
// memory deltas).
func (m *MemSnapshot) XferSnap(x *snap.Xfer) {
	x.U64(&m.Loads)
	x.U64(&m.Stores)
	x.U64(&m.LoadRetries)
	x.U64(&m.L1Hits)
	x.U64(&m.L1Misses)
	x.U64(&m.L2Hits)
	x.U64(&m.L2Misses)
	x.Int(&m.MSHROccupancy)
	x.Int(&m.DirLines)
}

// XferSnap transfers every chip hierarchy, the directory, the network
// and the machine-wide stats; decoding overlays a freshly built system
// of the same configuration.
func (s *System) XferSnap(x *snap.Xfer) {
	for _, c := range s.Chips {
		c.XferSnap(x)
	}
	s.Dir.XferSnap(x)
	s.Net.XferSnap(x)
	s.Stats.XferSnap(x)
}
