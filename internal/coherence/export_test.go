package coherence

// Test-only probe: no binary reads a line's sharers.

// Sharers returns the sharer set and owner of a line.
func (d *Directory) Sharers(line int64) (mask uint32, owner int) {
	idx, found := d.find(line)
	if !found {
		return 0, noOwner
	}
	e := &d.slots[idx].e
	return e.sharers, int(e.owner)
}
