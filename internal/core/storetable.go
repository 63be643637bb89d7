package core

// storeTable is a cluster's store-forwarding table: (thread, effective
// address) → the thread's youngest in-flight store to that address.
// Stores publish themselves at fetch and retire their mapping at commit
// (unless a younger same-address store replaced it); loads bind their
// forwarding candidate from it at fetch, replacing a per-issue FIFO
// scan.
//
// It is an open-addressed linear-probe table of inline slots, sized
// once to at least twice the entry pool — in-flight stores are bounded
// by the pool, so the load factor never passes 1/2 and every probe ends
// at an empty slot. Deletion is by backward shift, not tombstones, so
// the table never degrades, never rehashes and never allocates. Every
// mapped store is uncommitted, hence live: slots hold bare handles.
type storeTable struct {
	slots []storeSlot // len is a power of two
	shift uint        // 64 - log2(len(slots))
	live  int
}

type storeSlot struct {
	addr int64
	tid  int32
	h    handle // 0 = empty
}

func newStoreTable(maxStores int) storeTable {
	n, shift := 2, uint(63)
	for n < 2*maxStores {
		n <<= 1
		shift--
	}
	return storeTable{slots: make([]storeSlot, n), shift: shift}
}

// home is the slot a key's probe sequence starts at (Fibonacci hash;
// the thread id perturbs the address so SPMD threads touching the same
// address spread out).
func (st *storeTable) home(tid int32, addr int64) int {
	return int(((uint64(addr) ^ uint64(tid)<<48) * 0x9E3779B97F4A7C15) >> st.shift)
}

// find returns the index of the slot holding the key, or of the empty
// slot that ends its probe sequence.
func (st *storeTable) find(tid int32, addr int64) int {
	mask := len(st.slots) - 1
	i := st.home(tid, addr)
	for {
		s := &st.slots[i]
		if s.h == 0 || (s.addr == addr && s.tid == tid) {
			return i
		}
		i = (i + 1) & mask
	}
}

// get returns the thread's youngest in-flight store to addr, or 0.
func (st *storeTable) get(tid int32, addr int64) handle {
	return st.slots[st.find(tid, addr)].h
}

// put records h as the thread's youngest in-flight store to addr.
func (st *storeTable) put(tid int32, addr int64, h handle) {
	s := &st.slots[st.find(tid, addr)]
	if s.h == 0 {
		st.live++
	}
	*s = storeSlot{addr: addr, tid: tid, h: h}
}

// retire drops the mapping for a committing store h — but only if h is
// still the youngest store to its address: when a younger one replaced
// it the mapping is that store's to retire.
func (st *storeTable) retire(tid int32, addr int64, h handle) {
	i := st.find(tid, addr)
	if st.slots[i].h != h {
		return
	}
	// Backward-shift deletion: pull each later member of the probe run
	// into the hole unless its home lies cyclically after the hole (then
	// the hole is not on its probe path).
	mask := len(st.slots) - 1
	for j := (i + 1) & mask; st.slots[j].h != 0; j = (j + 1) & mask {
		k := st.home(st.slots[j].tid, st.slots[j].addr)
		if (j-k)&mask >= (j-i)&mask {
			st.slots[i] = st.slots[j]
			i = j
		}
	}
	st.slots[i] = storeSlot{}
	st.live--
}
