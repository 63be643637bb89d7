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

// oracleHash is a transcription of the v2 program digest over a map
// image: collect the keys, sort them, group consecutive words into
// maximal runs, and write every field to SHA-256 on its own — each run
// as its address, its word count, then its words. It is the reference
// the streaming digest must equal byte for byte — on-disk checkpoints
// and cache keys carry these hashes.
func oracleHash(p *prog.Program, init map[int64]uint64, n int) [32]byte {
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
	addrs := make([]int64, 0, len(init))
	for a := range init {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w64(uint64(len(addrs)))
	for i := 0; i < len(addrs); {
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

func checkDigests(t *testing.T, label string, p *prog.Program, init map[int64]uint64) {
	t.Helper()
	if got, want := p.Fingerprint(), oracleHash(p, init, len(p.Code)); got != want {
		t.Errorf("%s: Fingerprint %x, oracle %x", label, got, want)
	}
	key, ok := p.PrefixKey()
	if ok != (p.PrefixLen > 0) {
		t.Errorf("%s: PrefixKey ok = %v with PrefixLen %d", label, ok, p.PrefixLen)
	}
	if ok {
		if want := oracleHash(p, init, p.PrefixLen); key != want {
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
				checkDigests(t, fmt.Sprintf("%s/%d/%s", w.Name, threads, size), p, imageMap(t, p))
			}
		}
	}
}

// TestDigestPinned anchors the digests to values printed when the v2
// stream was introduced, so a change to the digest and the oracle above
// together still fails.
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
			"b22df93d04a37992366cdd5a9d5e87b34f1599d8a37ec7006365225eb9f6d36d",
			"8e3c6858382b9fd0ac63c9dbc5fb5189f085cbb125a2980e8fb73505d72dddc6"},
		{synth, 32, workloads.SizeTest,
			"dcbe5c8d49d434de067ff0385c296f64b6ea1000bbf4db9eb4a8ffde14c7c3f4",
			"fa8e24db0f0502015d93da16dd38c04c458fb762905ce033280783fd5a209f96"},
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
// globals, words nobody touches — mirroring every Set into a map for
// the oracle. A word set to zero is present and hashed; an untouched
// word is not.
func TestDigestIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		b := prog.NewBuilder(fmt.Sprintf("prop%d", trial))
		init := map[int64]uint64{}
		lowWords := int64(1 + rng.Intn(300))
		low := b.Global("low", lowWords)
		b.Global("hole", int64(rng.Intn(2000))) // declared, never written
		consts := make([]uint64, rng.Intn(5))
		for i := range consts {
			consts[i] = rng.Uint64() % 2
		}
		cbase := b.GlobalWords("consts", consts) // set through the builder, zeros included
		for i, v := range consts {
			init[cbase+int64(i)*prog.WordSize] = v
		}
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
		checkDigests(t, p.Name, p, init)
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
