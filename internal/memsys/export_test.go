package memsys

// Test-only probes of cache occupancy and outstanding fills.

// Resident reports how many lines are currently valid.
func (c *Cache) Resident() int {
	n := 0
	for _, ch := range c.chunks {
		if ch == nil {
			continue
		}
		for i := range ch.ways {
			if ch.ways[i].state != Invalid {
				n++
			}
		}
	}
	return n
}

// InFlight returns the number of outstanding fills at cycle now.
func (m *MSHRFile) InFlight(now int64) int {
	m.retire(now)
	return len(m.pending)
}
