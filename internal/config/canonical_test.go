package config

import (
	"fmt"
	"reflect"
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

	if ca, cb := canonical(a), canonical(b); ca != cb {
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

// TestCanonicalIsVersioned pins the header so accidental format edits
// that should bump the version fail a test instead of silently aliasing
// persisted cache entries.
func TestCanonicalIsVersioned(t *testing.T) {
	if c := canonical(LowEnd(FA1)); !strings.HasPrefix(c, "clustersmt.Machine/v1\n") {
		t.Fatalf("canonical form lost its version header:\n%s", c)
	}
}

// canonical is the machine's canonical form as text.
func canonical(m Machine) string { return string(m.AppendCanonical(nil)) }

// TestCanonicalCoversEveryField moves each int field of Machine, Arch
// and MemConfig, one at a time, and requires the hash to move. The
// value is moved away from both its current value and the defaults
// PredictorSize and BTBSize resolve zero to, so a physical field added
// without a canonical line fails here. Names are presentation and Alloc
// has its own cases in TestCanonicalDistinguishesConfigs; any other
// field kind fails until this test learns to move it.
func TestCanonicalCoversEveryField(t *testing.T) {
	for _, base := range []Machine{LowEnd(SMT2), HighEnd(FA8)} {
		want := base.Hash()
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f, name := v.Field(i), path+v.Type().Field(i).Name
				switch {
				case name == "Name" || name == "Arch.Name" || name == "Alloc":
				case f.Kind() == reflect.Struct:
					walk(name+".", f)
				case f.Kind() == reflect.Int:
					old := f.Int()
					moved := old + 1
					for moved == BranchPredEntries || moved == BTBEntries {
						moved++
					}
					f.SetInt(moved)
					if base.Hash() == want {
						t.Errorf("%s: %s %d -> %d left the hash unchanged", base.Name, name, old, moved)
					}
					f.SetInt(old)
				default:
					t.Errorf("%s: field %s has kind %s; move it in this test", base.Name, name, f.Kind())
				}
			}
		}
		walk("", reflect.ValueOf(&base).Elem())
		if base.Hash() != want {
			t.Fatalf("%s: the walk did not restore the machine", base.Name)
		}
	}
}
