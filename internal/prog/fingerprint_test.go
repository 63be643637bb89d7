package prog_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// oracleRep is a repeated extent as the oracle streams it.
type oracleRep struct {
	addr, count int64
	period      []uint64
}

// oracleHash is a transcription of the v2 program digest over a map
// image and a list of repeated extents: collect the keys outside the
// repeated extents, sort them, group consecutive words into maximal
// runs, and write every field to SHA-256 on its own — each run as its
// address, its word count, then its words; each repeated extent, in
// address order among the runs, as its address, its word count with bit
// 63 set, its period's length, then the period. It is the reference the
// streaming digest must equal byte for byte — on-disk checkpoints and
// cache keys carry these hashes.
func oracleHash(p *prog.Program, init map[int64]uint64, reps []oracleRep, n int) [32]byte {
	h := sha256.New()
	var scratch [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	h.Write([]byte("clustersmt.Program/v2"))
	w64(uint64(n))
	for _, in := range p.Code[:n] {
		h.Write([]byte{byte(in.Op), byte(in.RD), byte(in.RS1), byte(in.RS2),
			byte(in.FD), byte(in.FS1), byte(in.FS2)})
		w64(uint64(in.Imm))
	}
	w64(uint64(p.Entry))
	w64(uint64(p.DataEnd))
	inRep := func(a int64) bool {
		for _, r := range reps {
			if a >= r.addr && a < r.addr+r.count*prog.WordSize {
				return true
			}
		}
		return false
	}
	addrs := make([]int64, 0, len(init))
	total := uint64(0)
	for a := range init {
		if !inRep(a) {
			addrs = append(addrs, a)
		}
	}
	for _, r := range reps {
		total += uint64(r.count)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w64(uint64(len(addrs)) + total)
	reps = append([]oracleRep(nil), reps...)
	sort.Slice(reps, func(i, j int) bool { return reps[i].addr < reps[j].addr })
	for i := 0; i < len(addrs) || len(reps) > 0; {
		if len(reps) > 0 && (i == len(addrs) || reps[0].addr < addrs[i]) {
			w64(uint64(reps[0].addr))
			w64(uint64(reps[0].count) | 1<<63)
			w64(uint64(len(reps[0].period)))
			for _, v := range reps[0].period {
				w64(v)
			}
			reps = reps[1:]
			continue
		}
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+prog.WordSize {
			j++
		}
		w64(uint64(addrs[i]))
		w64(uint64(j - i))
		for _, a := range addrs[i:j] {
			w64(init[a])
		}
		i = j
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// imageMap reads a built program's image back into a map through Get
// alone, so the oracle does not lean on the iteration it is checking.
func imageMap(t testing.TB, p *prog.Program) map[int64]uint64 {
	t.Helper()
	m := make(map[int64]uint64, p.Init.Len())
	for a := int64(prog.DataBase); a < p.DataEnd; a += prog.WordSize {
		if v, ok := p.Init.Get(a); ok {
			m[a] = v
		}
	}
	if len(m) != p.Init.Len() {
		t.Fatalf("%s: %d words inside the data segment, Len %d", p.Name, len(m), p.Init.Len())
	}
	return m
}

// synthReps is the repeated extent the synthetic generator declares —
// its data array, one 97-word period — read back through Get; nil for
// any other program.
func synthReps(p *prog.Program, init map[int64]uint64) []oracleRep {
	s, ok := p.Symbols["data"]
	if p.Name != "synthetic" || !ok {
		return nil
	}
	period := make([]uint64, min(97, s.Size/prog.WordSize))
	for k := range period {
		period[k] = init[s.Addr+int64(k)*prog.WordSize]
	}
	return []oracleRep{{s.Addr, s.Size / prog.WordSize, period}}
}

func checkDigests(t *testing.T, label string, p *prog.Program, init map[int64]uint64, reps []oracleRep) {
	t.Helper()
	if got, want := p.Fingerprint(), oracleHash(p, init, reps, len(p.Code)); got != want {
		t.Errorf("%s: Fingerprint %x, oracle %x", label, got, want)
	}
	key, ok := p.PrefixKey()
	if ok != (p.PrefixLen > 0) {
		t.Errorf("%s: PrefixKey ok = %v with PrefixLen %d", label, ok, p.PrefixLen)
	}
	if ok {
		if want := oracleHash(p, init, reps, p.PrefixLen); key != want {
			t.Errorf("%s: PrefixKey %x, oracle %x", label, key, want)
		}
	}
}

// TestDigestIdentityWorkloads is the differential over real programs:
// the paper's six applications and the two extras at both input sizes
// for 2, 8 and 32 threads, and the synthetic generator at 16, 256 and
// 2048 KB with and without a warm-up prefix.
func TestDigestIdentityWorkloads(t *testing.T) {
	ws := append(workloads.All(), workloads.Extras()...)
	for _, kb := range []int{16, 256, 2048} {
		for _, warm := range []int64{0, 12000} {
			ws = append(ws, workloads.Synthetic(workloads.SyntheticSpec{
				FootprintKB: kb, ChainLen: 4, IndepOps: 2, MemOps: 2, WarmupIters: warm}))
		}
	}
	for _, w := range ws {
		for _, threads := range []int{2, 8, 32} {
			for _, size := range []workloads.Size{workloads.SizeTest, workloads.SizeRef} {
				p := w.Build(threads, 1, size)
				init := imageMap(t, p)
				checkDigests(t, fmt.Sprintf("%s/%d/%s", w.Name, threads, size), p, init, synthReps(p, init))
			}
		}
	}
}

// TestDigestPinned anchors the digests to printed values, so a change to
// the digest and the oracle above together still fails. The ocean pin
// dates from the v2 stream and holds every program without a repeated
// extent; the synth pins date from the data array becoming one.
func TestDigestPinned(t *testing.T) {
	synth := workloads.Synthetic(workloads.SyntheticSpec{
		FootprintKB: 2048, ChainLen: 4, IndepOps: 2, MemOps: 2, WarmupIters: 12000})
	for _, c := range []struct {
		w       workloads.Workload
		threads int
		size    workloads.Size
		fp, pk  string
	}{
		{workloads.Ocean(), 8, workloads.SizeRef,
			"4f78f5867142b8c888bf26946af534fd4cfae2679d3494af92643bc037c9b90f", ""},
		{synth, 2, workloads.SizeTest,
			"2cf1939ad3d9e2a46ecbdeb923962ccc50feb6e564512e4af355e12ea094721b",
			"ab8b05e4a2afbb26cb22446e08c35903d376b265085f6029c0e5e7c7b77c11c7"},
		{synth, 32, workloads.SizeTest,
			"8b9d1e1db0066556c8c5c5341f8c730d05101ed431e5b2cb91fc043f43aaddd0",
			"1d14b4db03eb12087661c9b2ad5bde2775400dea9f28d2e0770a636bf3bb37cf"},
	} {
		p := c.w.Build(c.threads, 1, c.size)
		if got := fmt.Sprintf("%x", p.Fingerprint()); got != c.fp {
			t.Errorf("%s/%d: Fingerprint %s, pinned %s", c.w.Name, c.threads, got, c.fp)
		}
		key, ok := p.PrefixKey()
		if got := fmt.Sprintf("%x", key); ok != (c.pk != "") || ok && got != c.pk {
			t.Errorf("%s/%d: PrefixKey %s (%v), pinned %q", c.w.Name, c.threads, got, ok, c.pk)
		}
	}
}

// TestDigestIdentityProperty builds images the way no workload does —
// Sets in random order, overwrites, explicit zeros, a hole between two
// globals, words nobody touches, repeated extents right against dense
// words with periods longer than themselves or cut short — mirroring
// every Set into a map and every repeated extent into a list for the
// oracle. A word set to zero is present and hashed; an untouched word
// is not.
func TestDigestIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		b := prog.NewBuilder(fmt.Sprintf("prop%d", trial))
		init := map[int64]uint64{}
		var reps []oracleRep
		repeat := func(name string) {
			if rng.Intn(2) == 0 {
				return
			}
			r := oracleRep{count: 1 + rng.Int63n(500), period: make([]uint64, 1+rng.Intn(120))}
			for k := range r.period {
				r.period[k] = rng.Uint64() % 3
			}
			r.addr = b.GlobalRepeat(name, r.count, r.period)
			r.period = r.period[:min(int64(len(r.period)), r.count)]
			reps = append(reps, r)
		}
		lowWords := int64(1 + rng.Intn(300))
		low := b.Global("low", lowWords)
		repeat("rep-low")                       // adjacent to low's words
		b.Global("hole", int64(rng.Intn(2000))) // declared, never written
		consts := make([]uint64, rng.Intn(5))
		for i := range consts {
			consts[i] = rng.Uint64() % 2
		}
		cbase := b.GlobalWords("consts", consts) // set through the builder, zeros included
		for i, v := range consts {
			init[cbase+int64(i)*prog.WordSize] = v
		}
		repeat("rep-mid") // between consts and high
		highWords := int64(1 + rng.Intn(300))
		high := b.Global("high", highWords)
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			b.Addi(isa.Reg(1+i), isa.RegZero, rng.Int63())
		}
		b.MarkPrefix()
		b.Nop()
		b.Halt()
		p := b.MustBuild()
		for i, n := 0, rng.Intn(400); i < n; i++ {
			a := low + rng.Int63n(lowWords)*prog.WordSize
			if rng.Intn(2) == 0 {
				a = high + rng.Int63n(highWords)*prog.WordSize
			}
			v := rng.Uint64() % 4
			p.Init.Set(a, v)
			init[a] = v
		}
		checkDigests(t, p.Name, p, init, reps)
	}
}

// TestDigestConcurrent hashes one program from eight goroutines at
// once (run under -race by make race): everybody gets the same two
// digests, and they are the single-goroutine ones.
func TestDigestConcurrent(t *testing.T) {
	w := workloads.Synthetic(workloads.SyntheticSpec{FootprintKB: 256, WarmupIters: 500})
	ref := w.Build(2, 1, workloads.SizeTest)
	wantFP := ref.Fingerprint()
	wantPK, _ := ref.PrefixKey()

	p := w.Build(2, 1, workloads.SizeTest)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Half the goroutines ask for the prefix key first.
				if (g+i)%2 == 0 {
					if fp := p.Fingerprint(); fp != wantFP {
						t.Errorf("goroutine %d: Fingerprint %x, want %x", g, fp, wantFP)
					}
				}
				if pk, ok := p.PrefixKey(); !ok || pk != wantPK {
					t.Errorf("goroutine %d: PrefixKey %x (%v), want %x", g, pk, ok, wantPK)
				}
			}
		}(g)
	}
	wg.Wait()
}

var digestSink [32]byte

// BenchmarkFingerprint is the cost of one real hash: a fresh Program
// every iteration (built outside the timer), because a second call on
// the same Program is a memo hit.
func BenchmarkFingerprint(b *testing.B) {
	for _, kb := range []int{16, 2048} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			w := workloads.Synthetic(workloads.SyntheticSpec{FootprintKB: kb, WarmupIters: 12000})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := w.Build(2, 1, workloads.SizeTest)
				b.StartTimer()
				digestSink = p.Fingerprint()
			}
		})
	}
}
