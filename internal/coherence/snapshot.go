package coherence

import (
	"fmt"

	"clustersmt/internal/memsys"
	"clustersmt/internal/snap"
)

// Fork returns a clone of the memory system: cache tag arrays are
// shared copy-on-write (memsys.Cache.Fork); the directory table,
// network ports, TLBs, MSHRs and bank state are bounded-size and copied
// eagerly. Stat shards are dropped — the parallel runtime re-creates
// them at the next Run and they are always folded (zero) between
// cycles.
func (s *System) Fork() *System {
	cp := *s
	cp.Chips = make([]*memsys.Chip, len(s.Chips))
	for i, c := range s.Chips {
		cp.Chips[i] = c.Fork()
	}
	cp.Dir = s.Dir.Clone()
	cp.Net = s.Net.Clone()
	cp.shards = nil
	return &cp
}

// Clone returns an independent deep copy of the directory.
func (d *Directory) Clone() *Directory {
	cp := *d
	cp.slots = append([]dirSlot(nil), d.slots...)
	return &cp
}

// EncodeSnap writes the directory's open-addressed table raw — slot
// positions, tombstones and all — so probe chains replay exactly, plus
// the protocol counters. Table geometry (hashShift, live, dead) is
// derived from the slots on decode.
func (d *Directory) EncodeSnap(w *snap.Writer) {
	w.Int(len(d.slots))
	for i := range d.slots {
		s := &d.slots[i]
		w.I64(s.line)
		w.U32(s.e.sharers)
		w.U8(uint8(s.e.owner))
		w.U8(s.state)
	}
	w.U64(d.Invalidations)
	w.U64(d.Downgrades)
	w.U64(d.Writebacks)
	w.U64(d.ThreeHops)
}

// DecodeSnap overlays a table produced by EncodeSnap onto a fresh
// directory for the same chip count.
func (d *Directory) DecodeSnap(r *snap.Reader) {
	n := r.Int()
	if n < dirMinSlots || n&(n-1) != 0 || n > r.Remaining() {
		r.Fail(fmt.Errorf("coherence: corrupt directory table size %d", n))
		return
	}
	d.initTable(n)
	for i := range d.slots {
		s := &d.slots[i]
		s.line = r.I64()
		s.e.sharers = r.U32()
		s.e.owner = int8(r.U8())
		s.state = r.U8()
		if r.Err() != nil {
			return
		}
		if s.state > slotDead {
			r.Fail(fmt.Errorf("coherence: invalid directory slot state %d", s.state))
			return
		}
		if s.state == slotFull {
			if d.nchips < 32 && s.e.sharers>>uint(d.nchips) != 0 {
				r.Fail(fmt.Errorf("coherence: sharer mask %#x exceeds %d chips", s.e.sharers, d.nchips))
				return
			}
			if s.e.owner != noOwner && (s.e.owner < 0 || int(s.e.owner) >= d.nchips) {
				r.Fail(fmt.Errorf("coherence: directory owner %d out of range", s.e.owner))
				return
			}
			d.live++
		} else if s.state == slotDead {
			d.dead++
		}
	}
	d.Invalidations = r.U64()
	d.Downgrades = r.U64()
	d.Writebacks = r.U64()
	d.ThreeHops = r.U64()
}

// EncodeSnap writes the machine-wide counter block.
func (st *Stats) EncodeSnap(w *snap.Writer) {
	w.U64(st.Loads)
	w.U64(st.Stores)
	w.U64(st.LoadRetries)
	for _, v := range st.ByClass {
		w.U64(v)
	}
	for _, v := range st.LatencyByClass {
		w.U64(v)
	}
	w.U64(st.StoreHits)
	w.U64(st.StoreUpgrade)
	w.U64(st.StoreMisses)
	w.U64(st.TLBMisses)
}

// DecodeSnap reads the block written by EncodeSnap.
func (st *Stats) DecodeSnap(r *snap.Reader) {
	st.Loads = r.U64()
	st.Stores = r.U64()
	st.LoadRetries = r.U64()
	for i := range st.ByClass {
		st.ByClass[i] = r.U64()
	}
	for i := range st.LatencyByClass {
		st.LatencyByClass[i] = r.U64()
	}
	st.StoreHits = r.U64()
	st.StoreUpgrade = r.U64()
	st.StoreMisses = r.U64()
	st.TLBMisses = r.U64()
}

// EncodeSnap writes every chip hierarchy, the directory, the network
// and the folded machine-wide stats. Stat shards must be folded (they
// always are between cycles).
func (s *System) EncodeSnap(w *snap.Writer) {
	for _, c := range s.Chips {
		c.EncodeSnap(w)
	}
	s.Dir.EncodeSnap(w)
	s.Net.EncodeSnap(w)
	s.Stats.EncodeSnap(w)
}

// DecodeSnap overlays a system encoded by EncodeSnap onto a freshly
// built system of the same configuration.
func (s *System) DecodeSnap(r *snap.Reader) {
	for _, c := range s.Chips {
		c.DecodeSnap(r)
	}
	s.Dir.DecodeSnap(r)
	s.Net.DecodeSnap(r)
	s.Stats.DecodeSnap(r)
}
