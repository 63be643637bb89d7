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
	var mems []*interp.Memory
	var syncs []*parallel.Sync
	s, err := newMachine(m, progs[0], coherence.NewSystem(m.Chips, m.Mem), len(progs), func(i int) *threadCtx {
		mem := interp.NewMemory()
		mem.LoadImage(progs[i])
		sync := parallel.NewSync(1)
		mems, syncs = append(mems, mem), append(syncs, sync)
		return &threadCtx{fn: interp.NewThread(0, progs[i], mem), sync: sync, memBase: int64(i) * asidStride}
	})
	if err != nil {
		return nil, err
	}
	s.mem, s.mems, s.syncs = mems[0], mems, syncs
	return s, nil
}
