package config

import (
	"crypto/sha256"
	"strconv"
)

// Canonical encoding: a deterministic, versioned, field-ordered byte
// form of a fully-resolved configuration, used as the content-addressed
// cache key by the serving subsystem (internal/service) and reusable by
// any tool that wants "same physical machine → same key".
//
// Rules (documented in DESIGN §7):
//
//   - Only physical fields participate. Names (Machine.Name, Arch.Name)
//     are presentation and are deliberately excluded, so FA8 and SMT8 —
//     the same silicon under two names (§5.2) — share one key, exactly
//     as the harness already shares their simulation results.
//   - Defaulted fields are resolved before encoding: an Arch with
//     PredictorEntries == 0 encodes the §3.1 default (2048), so "left
//     at default" and "explicitly set to the default" are one config.
//   - Fields are emitted in a fixed order as "key=value" lines under a
//     versioned header. Any semantic change to the encoding must bump
//     the version, which invalidates every persisted cache entry rather
//     than silently aliasing old ones.
const canonicalVersion = "clustersmt.Machine/v1"

// appendLine appends one "key=value" line with an integer value.
func appendLine(b []byte, key string, v int64) []byte {
	b = append(b, key...)
	b = append(b, '=')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

func (a Arch) appendCanonical(b []byte) []byte {
	b = appendLine(b, "arch.clusters", int64(a.Clusters))
	b = appendLine(b, "arch.issue", int64(a.IssueWidth))
	b = appendLine(b, "arch.tpc", int64(a.ThreadsPerCluster))
	b = appendLine(b, "arch.int", int64(a.IntUnits))
	b = appendLine(b, "arch.ldst", int64(a.LdStUnits))
	b = appendLine(b, "arch.fp", int64(a.FPUnits))
	b = appendLine(b, "arch.window", int64(a.WindowEntries))
	b = appendLine(b, "arch.renint", int64(a.RenameInt))
	b = appendLine(b, "arch.renfp", int64(a.RenameFP))
	b = appendLine(b, "arch.pred", int64(a.PredictorSize()))
	return appendLine(b, "arch.btb", int64(a.BTBSize()))
}

func (m MemConfig) appendCanonical(b []byte) []byte {
	b = appendLine(b, "mem.l1kb", int64(m.L1SizeKB))
	b = appendLine(b, "mem.l2kb", int64(m.L2SizeKB))
	b = appendLine(b, "mem.line", int64(m.LineBytes))
	b = appendLine(b, "mem.l1assoc", int64(m.L1Assoc))
	b = appendLine(b, "mem.l2assoc", int64(m.L2Assoc))
	b = appendLine(b, "mem.fill", int64(m.FillTime))
	b = appendLine(b, "mem.l1banks", int64(m.L1Banks))
	b = appendLine(b, "mem.l2banks", int64(m.L2Banks))
	b = appendLine(b, "mem.occ", int64(m.Occupancy))
	b = appendLine(b, "mem.l1lat", int64(m.L1Latency))
	b = appendLine(b, "mem.l2lat", int64(m.L2Latency))
	b = appendLine(b, "mem.locmem", int64(m.LocalMemLatency))
	b = appendLine(b, "mem.remmem", int64(m.RemoteMemLat))
	b = appendLine(b, "mem.reml2", int64(m.RemoteL2Lat))
	b = appendLine(b, "mem.mshrs", int64(m.MSHRs))
	b = appendLine(b, "mem.tlb", int64(m.TLBEntries))
	b = appendLine(b, "mem.tlbpen", int64(m.TLBMissPenalty))
	b = appendLine(b, "mem.page", int64(m.PageBytes))
	return appendLine(b, "mem.netocc", int64(m.NetOccupancy))
}

// AppendCanonical appends the machine's canonical form to dst and
// returns the extended slice. It does not validate: every Machine value
// has a canonical form.
func (m Machine) AppendCanonical(dst []byte) []byte {
	b := append(dst, canonicalVersion+"\n"...)
	b = appendLine(b, "chips", int64(m.Chips))
	b = m.Arch.appendCanonical(b)
	b = m.Mem.appendCanonical(b)
	// Allocation policy: the normalized static form emits nothing, so
	// every pre-allocation encoding (and hence every persisted cache
	// entry and snapshot machine hash) stays byte-identical; dynamic
	// policies append their identity so two policies' machines never
	// share a hash (core.Restore refuses a checkpoint of another's).
	if a := m.Alloc.Normalize(); a.Policy != "" {
		b = append(b, "alloc.policy="...)
		b = append(b, a.Policy...)
		b = append(b, '\n')
		b = appendLine(b, "alloc.epoch", a.Epoch)
	}
	return b
}

// Hash returns the SHA-256 of the canonical encoding — the machine half
// of the serving subsystem's content-addressed cache key. Like
// AppendCanonical it does not validate: every Machine value has a hash,
// and invalid ones simply never produce cacheable results.
func (m Machine) Hash() [32]byte {
	var buf [640]byte // a preset's form with a dynamic policy is 481 bytes
	return sha256.Sum256(m.AppendCanonical(buf[:0]))
}
