package parallel

import (
	"fmt"
	"math"

	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// blockKind records why a functional thread cannot advance.
type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedLock
	blockedBarrier
)

// FunctionalResult is the outcome of a pure-functional (no timing) run.
type FunctionalResult struct {
	Mem     *interp.Memory
	Threads []*interp.Thread
	Sync    *Sync
	Steps   uint64 // total dynamic instructions executed
	// Ops counts the executed instructions per opcode (they sum to Steps).
	Ops [isa.NumOps]uint64
}

// ReadFloat returns the float64 stored at the named global plus a word
// offset — the standard way tests inspect kernel output.
func (r *FunctionalResult) ReadFloat(p *prog.Program, symbol string, word int64) float64 {
	addr := p.SymbolAddr(symbol) + word*prog.WordSize
	return math.Float64frombits(r.Mem.Load(addr))
}

// ReadWord returns the raw word at the named global plus a word offset.
func (r *FunctionalResult) ReadWord(p *prog.Program, symbol string, word int64) uint64 {
	addr := p.SymbolAddr(symbol) + word*prog.WordSize
	return r.Mem.Load(addr)
}

// RunFunctional executes p with nthreads interleaved round-robin, one
// instruction per turn, honoring locks and barriers, until every thread
// halts. maxSteps bounds total dynamic instructions (0 means a generous
// default); exceeding it, deadlocking or a thread jumping outside the
// program returns an error.
//
// This is the reference semantics for every kernel: the timing
// simulator must leave memory in exactly the same state (we assert this
// in integration tests) because both drive the same functional engine.
func RunFunctional(p *prog.Program, nthreads int, maxSteps uint64) (*FunctionalResult, error) {
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	mem := interp.NewMemory()
	mem.LoadImage(p)
	sync := NewSync(nthreads)
	threads := make([]*interp.Thread, nthreads)
	for i := range threads {
		threads[i] = interp.NewThread(i, p, mem)
	}

	blocked := make([]blockKind, nthreads)
	barTarget := make([]uint64, nthreads)

	var steps uint64
	var ops [isa.NumOps]uint64
	var d interp.DynInstr
	for {
		progress := false
		alive := false
		for tid, t := range threads {
			if t.Halted {
				continue
			}
			alive = true

			sl := t.Next()
			if sl == nil {
				return nil, fmt.Errorf("parallel: %s: thread %d: PC %d outside the program (%d instructions)", p.Name, tid, t.PC, len(p.Code))
			}
			in := &sl.Instr
			switch blocked[tid] {
			case blockedLock:
				if !sync.TryLock(in.Imm, tid) {
					continue
				}
				blocked[tid] = notBlocked
			case blockedBarrier:
				if !sync.Released(in.Imm, barTarget[tid]) {
					continue
				}
				blocked[tid] = notBlocked
			default:
				switch in.Op {
				case isa.OpLock:
					if !sync.TryLock(in.Imm, tid) {
						blocked[tid] = blockedLock
						continue
					}
				case isa.OpUnlock:
					sync.Unlock(in.Imm, tid)
				case isa.OpBarrier:
					barTarget[tid] = sync.Arrive(in.Imm)
					if !sync.Released(in.Imm, barTarget[tid]) {
						blocked[tid] = blockedBarrier
						// The barrier instruction itself executes on
						// release; do not step yet.
						continue
					}
				}
			}

			ops[in.Op]++
			t.Exec(&d)
			steps++
			progress = true
			if steps > maxSteps {
				return nil, fmt.Errorf("parallel: functional run exceeded %d steps (livelock?)", maxSteps)
			}
		}
		if !alive {
			break
		}
		if !progress {
			return nil, fmt.Errorf("parallel: deadlock: %d threads alive, none runnable", countAlive(threads))
		}
	}

	if sync.HeldLocks() != 0 {
		return nil, fmt.Errorf("parallel: run finished with %d locks still held", sync.HeldLocks())
	}
	return &FunctionalResult{Mem: mem, Threads: threads, Sync: sync, Steps: steps, Ops: ops}, nil
}

func countAlive(ts []*interp.Thread) int {
	n := 0
	for _, t := range ts {
		if !t.Halted {
			n++
		}
	}
	return n
}
