package config

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCanonicalEqualConfigsHashIdentically is the cache-key contract:
// two machines constructed by different code paths but describing the
// same physical configuration must produce identical canonical bytes
// and identical hashes.
func TestCanonicalEqualConfigsHashIdentically(t *testing.T) {
	// Path 1: the preset builder.
	a := LowEnd(SMT2)

	// Path 2: hand-assembled field by field, different Name, predictor
	// sizes written out explicitly instead of left at the defaults.
	arch := Arch{
		Name: "hand-rolled", Clusters: 2, IssueWidth: 4, ThreadsPerCluster: 4,
		IntUnits: 4, LdStUnits: 4, FPUnits: 4,
		WindowEntries: 64, RenameInt: 64, RenameFP: 64,
		PredictorEntries: BranchPredEntries, BTBEntries: BTBEntries,
	}
	b := Machine{Name: "totally different name", Chips: 1, Arch: arch, Mem: DefaultMem()}

	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\nvs\n%s", ca, cb)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equal configs hash differently: %x vs %x", a.Hash(), b.Hash())
	}
}

// TestCanonicalSharesFA8SMT8 pins the §5.2 aliasing: SMT8 is FA8 under
// another name, so the two share one cache key (as the harness already
// shares their simulation results).
func TestCanonicalSharesFA8SMT8(t *testing.T) {
	if LowEnd(FA8).Hash() != LowEnd(SMT8).Hash() {
		t.Fatal("FA8 and SMT8 describe the same silicon but hash differently")
	}
	if HighEnd(FA8).Hash() != HighEnd(SMT8).Hash() {
		t.Fatal("high-end FA8 and SMT8 hash differently")
	}
}

// TestCanonicalDistinguishesConfigs checks every physical axis moves
// the hash: distinct architectures, chip counts and memory knobs all
// produce distinct keys.
func TestCanonicalDistinguishesConfigs(t *testing.T) {
	seen := map[[32]byte]string{}
	add := func(name string, m Machine) {
		h := m.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
	for _, a := range AllArchs {
		add("low-end/"+a.Name, LowEnd(a))
		add("high-end/"+a.Name, HighEnd(a))
	}
	tweaked := LowEnd(SMT2)
	tweaked.Mem.MSHRs = 16
	add("low-end/SMT2+mshr16", tweaked)

	pred := LowEnd(SMT2)
	pred.Arch.PredictorEntries = 4096
	add("low-end/SMT2+pred4k", pred)

	// A dynamic allocation policy, and its epoch, are part of the
	// machine (core.Restore refuses a checkpoint of another policy's
	// machine), while an explicit "static" is the seed placement and
	// keeps the policy-free key.
	for _, a := range []AllocConfig{{Policy: "icount"}, {Policy: "symbiosis"}, {Policy: "icount", Epoch: 2000}} {
		m := LowEnd(SMT2)
		m.Alloc = a
		add(fmt.Sprintf("low-end/SMT2+%s@%d", a.Policy, a.Epoch), m)
	}
	static := LowEnd(SMT2)
	static.Alloc = AllocConfig{Policy: "static", Epoch: 2000}
	if static.Hash() != LowEnd(SMT2).Hash() {
		t.Fatal("an explicit static policy moved the machine's hash")
	}
}

// TestCanonicalValidates confirms Canonical rejects broken machines.
func TestCanonicalValidates(t *testing.T) {
	bad := LowEnd(SMT2)
	bad.Chips = 0
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("Canonical accepted an invalid machine")
	}
}

// TestCanonicalIsVersioned pins the header so accidental format edits
// that should bump the version fail a test instead of silently aliasing
// persisted cache entries.
func TestCanonicalIsVersioned(t *testing.T) {
	c, err := LowEnd(FA1).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(c), "clustersmt.Machine/v1\n") {
		t.Fatalf("canonical form lost its version header:\n%s", c)
	}
}
