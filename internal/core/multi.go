package core

import (
	"fmt"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
)

// asidStride separates the physical address spaces of multiprogrammed
// jobs: job i's addresses are offset by i*asidStride before they reach
// the (physically indexed) caches, TLB and directory, so independent
// jobs never false-share. 8 GiB per job keeps page/line arithmetic
// intact.
const asidStride = int64(1) << 33

// NewMulti builds a multiprogrammed simulator: each program runs as an
// independent sequential job on its own hardware context, with a
// private address space and private synchronization state — the
// "multiprogrammed workload" configuration of the SMT studies the paper
// builds on ([16], [9]). len(progs) must not exceed the machine's
// hardware contexts; remaining contexts stay idle.
//
// Each job executes with thread id 0 and a thread count of one, so
// programs written for NewMulti should be built for a single thread
// (serial sections run, barriers trip immediately).
func NewMulti(m config.Machine, progs []*prog.Program) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("core: NewMulti needs at least one program")
	}
	if len(progs) > m.Threads() {
		return nil, fmt.Errorf("core: %d programs exceed %d hardware contexts", len(progs), m.Threads())
	}
	s := &Simulator{
		Machine:   m,
		Program:   progs[0],
		msys:      coherence.NewSystem(m.Chips, m.Mem),
		MaxCycles: DefaultMaxCycles,
	}
	s.chips = make([][]*cluster, m.Chips)
	for chip := 0; chip < m.Chips; chip++ {
		s.chips[chip] = make([]*cluster, m.Arch.Clusters)
		for ci := 0; ci < m.Arch.Clusters; ci++ {
			cl := newCluster(chip, ci, m.Arch)
			s.chips[chip][ci] = cl
			s.clusters = append(s.clusters, cl)
		}
	}
	s.numberClusters()
	assign, err := s.initAlloc(len(progs))
	if err != nil {
		return nil, err
	}
	for i, p := range progs {
		mem := interp.NewMemory()
		mem.LoadImage(p)
		s.mems = append(s.mems, mem)

		var cl *cluster
		if assign != nil {
			cl = s.clusters[assign[i]]
		} else {
			chip := i % m.Chips
			local := i / m.Chips
			ci := local % m.Arch.Clusters
			cl = s.chips[chip][ci]
		}
		t := &threadCtx{
			id:         i,
			chip:       cl.chip,
			cluster:    cl,
			fn:         interp.NewThread(0, p, mem),
			sync:       parallel.NewSync(1),
			memBase:    int64(i) * asidStride,
			frontEvent: noEvent,
			fifo:       newRing(m.Arch.WindowEntries),
		}
		cl.threads = append(cl.threads, t)
		s.threads = append(s.threads, t)
		s.syncs = append(s.syncs, t.sync)
	}
	s.mem = s.mems[0]
	s.running = len(s.threads)
	return s, nil
}

// MemOf returns job i's private functional memory (multiprogrammed
// runs; for single-program runs use Mem).
func (s *Simulator) MemOf(i int) *interp.Memory { return s.mems[i] }
