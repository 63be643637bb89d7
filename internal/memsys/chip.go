package memsys

import "clustersmt/internal/config"

// Chip bundles the per-chip memory hierarchy: the shared primary cache
// (the paper deliberately shares L1 among all clusters on the chip,
// §3.4), the L2, the shared TLB and the load MSHRs, plus the bank
// occupancy state used for contention.
type Chip struct {
	ID  int
	Cfg config.MemConfig

	L1      *Cache
	L2      *Cache
	L1Banks *BankSet
	L2Banks *BankSet
	TLB     *TLB
	MSHR    *MSHRFile

	// TLBMissStalls counts TLB miss penalties applied.
	TLBMissStalls uint64
}

// NewChip builds the hierarchy for one chip. The TLB PRNG is seeded
// from the chip id so multi-chip runs remain deterministic but not
// lock-stepped.
func NewChip(id int, cfg config.MemConfig) *Chip {
	return &Chip{
		ID:      id,
		Cfg:     cfg,
		L1:      NewCache("L1", cfg.L1SizeKB, cfg.LineBytes, cfg.L1Assoc),
		L2:      NewCache("L2", cfg.L2SizeKB, cfg.LineBytes, cfg.L2Assoc),
		L1Banks: NewBankSet(cfg.L1Banks, cfg.Occupancy, cfg.LineBytes),
		L2Banks: NewBankSet(cfg.L2Banks, cfg.Occupancy, cfg.LineBytes),
		TLB:     NewTLB(cfg.TLBEntries, uint64(id+1)*0x2545F4914F6CDD1D),
		MSHR:    NewMSHRFile(cfg.MSHRs),
	}
}

// Line returns the line address containing addr.
func (c *Chip) Line(addr int64) int64 { return addr &^ (int64(c.Cfg.LineBytes) - 1) }

// Page returns the page number containing addr.
func (c *Chip) Page(addr int64) int64 { return addr / int64(c.Cfg.PageBytes) }

// Invalidate removes line from both cache levels (remote write).
func (c *Chip) Invalidate(line int64) {
	c.L1.SetState(line, Invalid)
	c.L2.SetState(line, Invalid)
}

// Downgrade demotes a Modified line to Shared (remote read of dirty
// data); no-op if the line is not resident.
func (c *Chip) Downgrade(line int64) {
	if c.L1.Probe(line) == Modified {
		c.L1.SetState(line, Shared)
	}
	if c.L2.Probe(line) == Modified {
		c.L2.SetState(line, Shared)
	}
}

// InstallResult reports lines displaced while installing a fill.
type InstallResult struct {
	// L2Victim is a line evicted from L2 (and, by inclusion, from L1);
	// the directory must be told it left this chip, and if it was
	// Modified its writeback is the caller's to account.
	L2Victim Victim
}

// Install places line into both levels with the given state, enforcing
// inclusion (an L2 eviction also invalidates the victim in L1).
func (c *Chip) Install(line int64, st LineState) InstallResult {
	var res InstallResult
	if v := c.L2.Insert(line, st); v.Evicted {
		c.L1.SetState(v.Line, Invalid)
		res.L2Victim = v
	}
	if v := c.L1.Insert(line, st); v.Evicted && v.State == Modified {
		// By inclusion the victim is still in L2; keep its dirty state
		// there so a later L2 eviction writes it back.
		c.L2.SetState(v.Line, Modified)
	}
	return res
}

// MarkModified upgrades line to Modified in both levels (store hit).
func (c *Chip) MarkModified(line int64) {
	c.L1.SetState(line, Modified)
	c.L2.SetState(line, Modified)
	if c.L1.Probe(line) == Invalid && c.L2.Probe(line) != Invalid {
		// Store hit in L2 only: refill L1 (inclusion holds, no dir
		// interaction needed).
		c.L1.Insert(line, Modified)
	}
}
