package main

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestSymbolKey holds the normaliser to the symbol shapes `go tool nm`
// prints for this module's binaries built with -gcflags=all=-l.
func TestSymbolKey(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		// Generic methods: the shape arguments hold spaces, quoted struct
		// tags and nested brackets.
		{`  595040 T clustersmt/internal/harness.(*flight[go.shape.struct { clustersmt/internal/harness.app string; clustersmt/internal/harness.size clustersmt/internal/workloads.Size },go.shape.struct { clustersmt/internal/harness.res *clustersmt/internal/core.Result }]).do`,
			"clustersmt/internal/harness.flight.do"},
		{`  5958a0 T clustersmt/internal/harness.(*flight[go.shape.struct { clustersmt/internal/harness.machine [32]uint8; clustersmt/internal/harness.prefix [32]uint8 },go.shape.*uint8]).do`,
			"clustersmt/internal/harness.flight.do"},
		{`  53e7a0 T clustersmt/internal/obs.(*Buffer[go.shape.struct { Index int "json:\"frame\""; Slots [8]float64 "json:\"slots\""; Clusters []clustersmt/internal/obs.ClusterSlots "json:\"clusters,omitempty\"" }]).Push`,
			"clustersmt/internal/obs.Buffer.Push"},
		{`  53ea60 T clustersmt/internal/obs.(*Buffer[clustersmt/internal/obs.Frame]).Len`, "clustersmt/internal/obs.Buffer.Len"},
		{`  53e000 T clustersmt/internal/obs.NewBuffer[go.shape.struct { A [2]int }]`, "clustersmt/internal/obs.NewBuffer"},
		// Closures, go and defer wrappers link their enclosing function.
		{`  5855e0 T clustersmt/internal/workloads.buildFmm.func1.2`, "clustersmt/internal/workloads.buildFmm"},
		{`  6d9dc0 T clustersmt/internal/service.NewPool.gowrap1`, "clustersmt/internal/service.NewPool"},
		{`  54b4e0 T clustersmt/internal/core.(*Simulator).run.deferwrap1`, "clustersmt/internal/core.Simulator.run"},
		{`  595840 T clustersmt/internal/harness.(*flight[go.shape.*uint8]).settle.deferwrap1`, "clustersmt/internal/harness.flight.settle"},
		// A method value, and the pointer wrapper of a value method.
		{`  553aa0 T clustersmt/internal/core.(*xfer).handle-fm`, "clustersmt/internal/core.xfer.handle"},
		{`  532900 T clustersmt/internal/coherence.(*AccessClass).String`, "clustersmt/internal/coherence.AccessClass.String"},
		{`  5293c0 T clustersmt/internal/config.Machine.Hash`, "clustersmt/internal/config.Machine.Hash"},
		{`  4011e0 t runtime.memmove`, "runtime.memmove"},
		// Data symbols are not functions.
		{`  87dd80 R clustersmt/internal/harness..dict.flight[clustersmt/internal/harness.runKey,clustersmt/internal/harness.outcome]`, ""},
		{`  9a1b20 D clustersmt/internal/core.ErrSnapshotCorrupt`, ""},
	} {
		if got := symbolKey(tc.line); got != tc.want {
			t.Errorf("symbolKey(%.60q…) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

// TestGenericMethodsLinked checks both halves meet: the keys declKey gives
// the generic methods harness.(*flight).do and obs.(*Buffer).Push are the
// keys their instantiated symbols normalise to, so neither is reported.
func TestGenericMethodsLinked(t *testing.T) {
	decls, _ := declared(run("go", "list", "-f", listFormat, "clustersmt/internal/harness", "clustersmt/internal/obs"))
	for _, line := range []string{
		`  5958a0 T clustersmt/internal/harness.(*flight[go.shape.struct { clustersmt/internal/harness.machine [32]uint8 },go.shape.*uint8]).do`,
		`  53e7a0 T clustersmt/internal/obs.(*Buffer[go.shape.struct { Index int "json:\"frame\"" }]).Push`,
	} {
		key := symbolKey(line)
		if _, ok := decls[key]; !ok {
			t.Errorf("%s: no declared function has key %q", line, key)
		}
	}
}

// TestCountNames holds the second pass's counting to its rules: a
// selector on an import counts under the import's path (renamed or
// not), a bare identifier under the file's own package, its
// declaration included, and a field sharing the name counts too.
func TestCountNames(t *testing.T) {
	const src = `package p

import (
	"example.com/a"
	bee "example.com/b"
)

const Own, Spare = 1, 2

var _ = a.X + bee.Y + Own + a.X

func f(s struct{ Own int }) int { return s.Own }
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	countNames(got, "example.com/p", file)
	for key, want := range map[string]int{
		"example.com/a.X": 2, "example.com/b.Y": 1,
		"example.com/p.Own": 4, "example.com/p.Spare": 1, "example.com/p.a": 0,
	} {
		if got[key] != want {
			t.Errorf("%s mentioned %d times, want %d (all: %v)", key, got[key], want, got)
		}
	}
}
