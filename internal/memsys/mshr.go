package memsys

// MSHRFile bounds the number of outstanding load misses per chip and
// merges secondary misses to a line already being fetched (§3.1:
// "non-blocking with up to 32 outstanding loads").
//
// Completed fills retire lazily. Next to the line→ready map sits a
// min-heap of (ready, line) pairs ordered by fill-complete cycle, so
// retirement pops only the fills that have actually completed —
// amortized O(1) per fill — instead of sweeping every pending entry on
// every Pending/TryAlloc/Free call. The sweep is the definition and the
// test oracle (sweepMSHR in mshr_test.go): same entries, same
// Merges/Rejected/Allocated counts.
type MSHRFile struct {
	cap     int
	pending map[int64]int64 // line -> fill-complete cycle
	fills   fillHeap        // pending fills ordered by ready

	Merges    uint64 // secondary misses piggybacked on a pending fill
	Rejected  uint64 // allocation attempts refused because the file was full
	Allocated uint64
}

// NewMSHRFile returns a file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("memsys: MSHR file needs positive capacity")
	}
	return &MSHRFile{
		cap:     capacity,
		pending: make(map[int64]int64, capacity),
		fills:   make(fillHeap, 0, capacity),
	}
}

// retire removes entries whose fills have completed by now. It pops
// the heap only while its earliest fill is due, so a call that retires
// nothing is O(1).
func (m *MSHRFile) retire(now int64) {
	for len(m.fills) > 0 && m.fills[0].ready <= now {
		f := m.fills.pop()
		// A stale heap entry (the line was re-allocated with a new ready
		// cycle after an earlier retirement) must not evict the live one.
		if r, ok := m.pending[f.line]; ok && r == f.ready {
			delete(m.pending, f.line)
		}
	}
}

// Pending returns the fill-complete cycle for line if a fetch is in
// flight at cycle now.
func (m *MSHRFile) Pending(now, line int64) (int64, bool) {
	m.retire(now)
	ready, ok := m.pending[line]
	if ok {
		m.Merges++
	}
	return ready, ok
}

// TryAlloc reserves an entry for line completing at ready. It returns
// false when the file is full (the load must retry a later cycle).
func (m *MSHRFile) TryAlloc(now, line, ready int64) bool {
	m.retire(now)
	if len(m.pending) >= m.cap {
		m.Rejected++
		return false
	}
	m.pending[line] = ready
	m.fills.push(fill{ready: ready, line: line})
	m.Allocated++
	return true
}

// Free returns the number of free entries at cycle now.
func (m *MSHRFile) Free(now int64) int {
	m.retire(now)
	return m.cap - len(m.pending)
}

// InFlight returns the number of outstanding fills at cycle now.
func (m *MSHRFile) InFlight(now int64) int {
	m.retire(now)
	return len(m.pending)
}

// Occupancy counts the fills still outstanding at cycle now WITHOUT
// retiring completed entries — a strictly read-only probe for the
// observability sampler, which must not perturb the retirement order.
func (m *MSHRFile) Occupancy(now int64) int {
	n := 0
	for _, ready := range m.pending {
		if ready > now {
			n++
		}
	}
	return n
}

// fill is one outstanding fetch: the line being filled and the cycle
// its data arrives.
type fill struct{ ready, line int64 }

// fillHeap is a hand-rolled min-heap of fills keyed by ready cycle
// (container/heap's interface indirection is measurable at this call
// frequency).
type fillHeap []fill

func (h *fillHeap) push(f fill) {
	*h = append(*h, f)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].ready <= s[i].ready {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *fillHeap) pop() fill {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].ready < s[least].ready {
			least = l
		}
		if r < n && s[r].ready < s[least].ready {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}
