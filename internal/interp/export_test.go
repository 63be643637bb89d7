package interp

// Word writes for this package's tests; threads write through their own
// View.

// Swap exchanges the word at addr with v, returning the old value.
func (m *Memory) Swap(addr int64, v uint64) uint64 { return m.self.Swap(addr, v) }

// Store writes the word at addr.
func (m *Memory) Store(addr int64, v uint64) { m.self.Store(addr, v) }
