// Command benchmark is the repository's measurement spine: five named
// workloads, nine end-to-end metrics and, from a separate traced run,
// the per-layer numbers (see README.md in this directory).
//
//	go run ./benchmark                          every workload, untraced, one child process each
//	go run ./benchmark -trace 1                 every workload, traced: the per-layer numbers
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                            one run; the last line of output is the result as JSON
//	go run ./benchmark -agree                   two sets of runs, compared metric by metric
//	go run ./benchmark -list                    BENCHMARK.json, from the tables in spec.go
//	go run ./benchmark -update-golden           regenerate golden/*.json (from the repository root)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	start := time.Now()
	workloadName := flag.String("workload", "", "run this workload only, in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "drives every random choice: cell, point and column order, the job stream")
	seconds := flag.Float64("seconds", runSeconds, "how long the measured phase runs passes of the fixed work")
	trace := flag.Int("trace", 0, "1 = the traced run: spans, CPU profile, per-layer metrics")
	scale := flag.String("scale", "full", "full, or smoke (a cut-down pass of every workload, for the test)")
	list := flag.Bool("list", false, "print BENCHMARK.json and exit")
	agree := flag.Bool("agree", false, "run the full set twice and report agree / unresolved / disagree per metric and workload")
	update := flag.Bool("update-golden", false, "regenerate the golden digests from this build's results")
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "smoke") || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *scale == "smoke"}

	var err error
	switch {
	case *list:
		_, err = os.Stdout.Write(benchmarkJSON())
	case *update:
		err = updateGolden()
	case *agree:
		err = runAgree(cfg)
	case *workloadName != "":
		def, ok := findWorkload(*workloadName)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workloadName)
			break
		}
		e := newEnv(def, cfg, nil)
		e.start = start
		var res *result
		if res, err = runWorkload(e); err == nil {
			printResult(os.Stdout, e, res)
			if !res.Correct {
				os.Exit(1)
			}
		}
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
}

// runChild re-executes this binary for one workload — a clean RSS, GC
// state and getrusage per run — and parses the result line.
func runChild(name string, cfg runConfig, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg, scaleArg := "0", "full"
	if cfg.trace {
		traceArg = "1"
	}
	if cfg.smoke {
		scaleArg = "smoke"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg, "-scale", scaleArg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(out.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload in a child of its own and fails if any
// result is incorrect.
func runAll(cfg runConfig) error {
	bad := 0
	for _, w := range workloadDefs {
		res, err := runChild(w.Name, cfg, true)
		if err != nil {
			return err
		}
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads incorrect (golden mismatch or failed operation)", bad, len(workloadDefs))
	}
	return nil
}

// updateGolden records this build's digests for every result the five
// workloads produce, at both scales, from seed 1. Sweep points are
// simulated from scratch, and the job stream is followed well past
// where a timed run gets.
func updateGolden() error {
	golden, err := loadCorpus(true)
	if err != nil {
		return err
	}
	for _, smoke := range []bool{false, true} {
		for _, def := range workloadDefs {
			seconds := 1.0
			if def.Name == wServe && !smoke {
				seconds = 3 * runSeconds
			}
			e := newEnv(def, runConfig{seed: 1, seconds: seconds, smoke: smoke}, golden)
			w := def.new()
			if err := w.setUp(e); err != nil {
				return err
			}
			t0 := time.Now()
			for i := 0; i == 0 || time.Since(t0).Seconds() < seconds; i++ {
				if _, err := w.pass(e, i); err != nil {
					return err
				}
			}
			w.tearDown()
			fmt.Fprintf(os.Stderr, "golden: %s smoke=%t: %d results\n", def.Name, smoke, e.attempted)
		}
	}
	return golden.save()
}
