package service

import (
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// FuzzJobSpec holds Resolve to the content-addressing contract on any
// input: it never panics, and the normalized spec of an accepted one
// resolves — under the other default size, so the normalized spec must
// name its own — to the same spec and the same hash. Seeds: the paper
// cells, mixed-case architectures and sizes, synthetic names like those
// the measurement spine submits, and a malformed synthetic name.
func FuzzJobSpec(f *testing.F) {
	for _, w := range workloads.All() {
		for _, a := range append([]config.Arch{config.SMT8}, config.AllArchs...) {
			f.Add(w.Name, a.Name, a.Name == "SMT2", "")
		}
	}
	for _, size := range []string{"test", "ref", "TEST", "Ref", "rEF", "huge"} {
		f.Add("swim", "SMT2", false, size)
		f.Add("ocean", "smt2", true, size)
	}
	for _, syn := range []workloads.SyntheticSpec{
		{ParCap: 4, ChainLen: 8, IndepOps: 6, MemOps: 3, FootprintKB: 64, Iters: 256, SerialIters: 32, Steps: 2},
		{ChainLen: 4, IndepOps: 2, MemOps: 2, FootprintKB: 2048, Iters: 192, WarmupIters: 12000},
	} {
		f.Add(workloads.Synthetic(syn).Name, "FA4", true, "test")
	}
	f.Add("synth(", "SMT1", false, "test")

	f.Fuzz(func(t *testing.T, app, arch string, highEnd bool, size string) {
		spec := JobSpec{App: app, Arch: arch, HighEnd: highEnd, Size: size}
		rj, err := spec.Resolve(workloads.SizeTest)
		if err != nil {
			return
		}
		again, err := rj.Spec.Resolve(workloads.SizeRef)
		if err != nil {
			t.Fatalf("%+v resolved to %+v, which does not resolve: %v", spec, rj.Spec, err)
		}
		if again.Spec != rj.Spec || again.Hash() != rj.Hash() {
			t.Fatalf("%+v: normalized %+v (hash %s) resolves to %+v (hash %s)",
				spec, rj.Spec, rj.HashHex(), again.Spec, again.HashHex())
		}
	})
}
