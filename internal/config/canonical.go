package config

import (
	"crypto/sha256"
	"fmt"
	"strings"
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

func (a Arch) appendCanonical(b *strings.Builder) {
	fmt.Fprintf(b, "arch.clusters=%d\n", a.Clusters)
	fmt.Fprintf(b, "arch.issue=%d\n", a.IssueWidth)
	fmt.Fprintf(b, "arch.tpc=%d\n", a.ThreadsPerCluster)
	fmt.Fprintf(b, "arch.int=%d\n", a.IntUnits)
	fmt.Fprintf(b, "arch.ldst=%d\n", a.LdStUnits)
	fmt.Fprintf(b, "arch.fp=%d\n", a.FPUnits)
	fmt.Fprintf(b, "arch.window=%d\n", a.WindowEntries)
	fmt.Fprintf(b, "arch.renint=%d\n", a.RenameInt)
	fmt.Fprintf(b, "arch.renfp=%d\n", a.RenameFP)
	fmt.Fprintf(b, "arch.pred=%d\n", a.PredictorSize())
	fmt.Fprintf(b, "arch.btb=%d\n", a.BTBSize())
}

func (m MemConfig) appendCanonical(b *strings.Builder) {
	fmt.Fprintf(b, "mem.l1kb=%d\n", m.L1SizeKB)
	fmt.Fprintf(b, "mem.l2kb=%d\n", m.L2SizeKB)
	fmt.Fprintf(b, "mem.line=%d\n", m.LineBytes)
	fmt.Fprintf(b, "mem.l1assoc=%d\n", m.L1Assoc)
	fmt.Fprintf(b, "mem.l2assoc=%d\n", m.L2Assoc)
	fmt.Fprintf(b, "mem.fill=%d\n", m.FillTime)
	fmt.Fprintf(b, "mem.l1banks=%d\n", m.L1Banks)
	fmt.Fprintf(b, "mem.l2banks=%d\n", m.L2Banks)
	fmt.Fprintf(b, "mem.occ=%d\n", m.Occupancy)
	fmt.Fprintf(b, "mem.l1lat=%d\n", m.L1Latency)
	fmt.Fprintf(b, "mem.l2lat=%d\n", m.L2Latency)
	fmt.Fprintf(b, "mem.locmem=%d\n", m.LocalMemLatency)
	fmt.Fprintf(b, "mem.remmem=%d\n", m.RemoteMemLat)
	fmt.Fprintf(b, "mem.reml2=%d\n", m.RemoteL2Lat)
	fmt.Fprintf(b, "mem.mshrs=%d\n", m.MSHRs)
	fmt.Fprintf(b, "mem.tlb=%d\n", m.TLBEntries)
	fmt.Fprintf(b, "mem.tlbpen=%d\n", m.TLBMissPenalty)
	fmt.Fprintf(b, "mem.page=%d\n", m.PageBytes)
	fmt.Fprintf(b, "mem.netocc=%d\n", m.NetOccupancy)
}

// AppendCanonical writes the machine's canonical form to b. It does not
// validate: every Machine value has a canonical form.
func (m Machine) AppendCanonical(b *strings.Builder) {
	b.WriteString(canonicalVersion)
	b.WriteByte('\n')
	fmt.Fprintf(b, "chips=%d\n", m.Chips)
	m.Arch.appendCanonical(b)
	m.Mem.appendCanonical(b)
	// Allocation policy: the normalized static form emits nothing, so
	// every pre-allocation encoding (and hence every persisted cache
	// entry and snapshot machine hash) stays byte-identical; dynamic
	// policies append their identity so two policies' machines never
	// share a hash (core.Restore refuses a checkpoint of another's).
	if a := m.Alloc.Normalize(); a.Policy != "" {
		fmt.Fprintf(b, "alloc.policy=%s\n", a.Policy)
		fmt.Fprintf(b, "alloc.epoch=%d\n", a.Epoch)
	}
}

// Hash returns the SHA-256 of the canonical encoding — the machine half
// of the serving subsystem's content-addressed cache key. Like
// AppendCanonical it does not validate: every Machine value has a hash,
// and invalid ones simply never produce cacheable results.
func (m Machine) Hash() [32]byte {
	var b strings.Builder
	m.AppendCanonical(&b)
	return sha256.Sum256([]byte(b.String()))
}
