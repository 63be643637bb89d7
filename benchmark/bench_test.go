package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go and
// both to the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -list`; regenerate it")
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		for _, on := range m.On {
			if _, ok := findWorkload(on); !ok {
				t.Errorf("metric %s applies to unknown workload %q", m.Name, on)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.On != nil {
			t.Errorf("end-to-end metric %s: bound %v, on %v", m.Name, m.Bound, m.On)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs a cut-down pass of all five workloads, untraced and
// traced, and checks what the driver would read: every declared metric
// exactly once (finish enforces set-once and applies-to), finite, 0
// only where a per-layer metric does not apply, results correct.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // records and cache directories land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			e := newEnv(def, runConfig{seed: 1, seconds: 0.2, trace: trace, smoke: true}, nil)
			res, err := runWorkload(e)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", def.Name, trace, err)
			}
			t.Logf("%s trace=%t: %.2fs", def.Name, trace, time.Since(e.start).Seconds())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d %v", def.Name, trace, res.Correct, res.Attempted, res.Failed, e.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, %d declared", def.Name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s missing", def.Name, trace, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s = %v %s", def.Name, trace, m.Name, v.Value, v.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never read 0", def.Name, m.Name, v.Value)
				case !m.appliesTo(def.Name) && v.Value != 0:
					t.Errorf("%s: %s = %v where it does not apply", def.Name, m.Name, v.Value)
				}
			}
			if trace {
				total := 0.0
				for _, l := range cpuShareLayers {
					total += res.Metrics["cpu_share."+l].Value
				}
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("%s: cpu_share.* sum to %v", def.Name, total)
				}
			}
			line, err := json.Marshal(res)
			if err != nil || !json.Valid(line) {
				t.Errorf("%s: result line: %v", def.Name, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"core", []string{"clustersmt/internal/core.(*cluster).issueEvent", "clustersmt/internal/core.(*Simulator).step"}},
		{"interp", []string{"clustersmt/internal/interp.(*Thread).Step", "clustersmt/internal/core.(*cluster).fetch"}},
		{"prog", []string{"sort.insertionSort", "sort.Slice", "clustersmt/internal/prog.(*Program).hashCode", "clustersmt/internal/harness.(*Suite).warmStart"}},
		{"prog", []string{"clustersmt/internal/workloads.buildSynthetic", "clustersmt/internal/harness.(*Suite).simulate"}},
		{"runtime-malloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "clustersmt/internal/core.(*cluster).newEntry"}},
		{"runtime-gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"service", []string{"encoding/json.(*encodeState).marshal", "clustersmt/internal/service.writeJSON", "net/http.HandlerFunc.ServeHTTP"}},
		{"std-net-json", []string{"internal/runtime/syscall.Syscall6", "syscall.write", "net/http.(*conn).serve"}},
		{"other", []string{"runtime.futex", "runtime.schedule"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}
