// Package service is the serving subsystem: it turns the simulator
// into a long-lived, queryable system. cmd/clusterd exposes its HTTP
// API; the pieces are a job codec with content-addressed spec hashing
// (codec.go), a bounded FIFO worker pool with admission control
// (queue.go), a two-tier result cache — in-memory LRU over the harness
// singleflight plus an optional on-disk store (cache.go) — and the
// HTTP server with graceful drain (server.go).
package service

import (
	"clustersmt/internal/config"
	"clustersmt/internal/harness"
	"clustersmt/internal/workloads"
)

// JobSpec is one simulation request as submitted to POST /v1/jobs. The
// zero values resolve to the daemon defaults (low-end machine, the
// server's default input size, the core cycle bound).
type JobSpec struct {
	// App names a workload: the paper's six, the extras, or any name
	// resolvable by workloads.ByName.
	App string `json:"app"`
	// Arch is a Table 2 architecture name (FA8 … SMT1, SMT8).
	Arch string `json:"arch"`
	// HighEnd selects the 4-chip machine instead of the 1-chip one.
	HighEnd bool `json:"high_end,omitempty"`
	// Size is "test" or "ref" ("" = the server default).
	Size string `json:"size,omitempty"`
}

// ResolvedJob is a JobSpec after name resolution: everything needed to
// run the simulation plus the fully-resolved machine the cache key is
// derived from.
type ResolvedJob struct {
	Spec     JobSpec
	Workload workloads.Workload
	Arch     config.Arch
	Machine  config.Machine
	Size     workloads.Size
}

// Resolve validates the spec against a default size and returns the
// resolved job. Unknown names and sizes are submission-time errors
// (HTTP 400), never queued.
func (s JobSpec) Resolve(defaultSize workloads.Size) (*ResolvedJob, error) {
	w, err := workloads.ByName(s.App)
	if err != nil {
		return nil, err
	}
	a, err := config.ArchByName(s.Arch)
	if err != nil {
		return nil, err
	}
	size := defaultSize
	if s.Size != "" {
		if size, err = workloads.ParseSize(s.Size); err != nil {
			return nil, err
		}
	}
	// A job names a preset machine, which core.New validates before it
	// simulates; there is nothing here to check twice.
	m := config.LowEnd(a)
	if s.HighEnd {
		m = config.HighEnd(a)
	}
	// Normalize the spec so equal submissions render equal JSON.
	s.App = w.Name
	s.Arch = a.Name
	s.Size = size.String()
	return &ResolvedJob{Spec: s, Workload: w, Arch: a, Machine: m, Size: size}, nil
}

// Hash is the content-addressed cache key, the job's harness.RunHash.
// Like the machine encoding it keys on physical content only: FA8 and
// SMT8 submissions share a key, as do a blank Size and an explicit
// server default. MaxCycles is server-wide, not per-job, so it does not
// participate; a daemon serving a different bound should use a
// different cache directory.
func (r *ResolvedJob) Hash() [32]byte {
	return harness.RunHash(r.Workload.Name, r.Size, r.Machine)
}
