package prog

import (
	"sort"
	"testing"
)

// imageOp is one step of FuzzImage's op stream, encoded as seven bytes:
// kind (low bits: Set, SetRun, repeat; the top bit misaligns the
// address), a 14-bit word index, a 13-bit length, a value base and a
// stride (the period's length, for repeat).
type imageOp struct {
	kind, lo, hi, nlo, nhi, v, step byte
}

func encodeOps(ops ...imageOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, o.kind, o.lo, o.hi, o.nlo, o.nhi, o.v, o.step)
	}
	return b
}

// at spells word index w and length n as an op's address and length
// bytes.
func at(kind byte, w, n int, v, step byte) imageOp {
	return imageOp{kind, byte(w), byte(w >> 8), byte(n), byte(n >> 8), v, step}
}

const (
	opSet byte = iota
	opSetRun
	opRepeat
)

// FuzzImage interleaves Set, SetRun and repeated extents on one Image
// and holds Len, Get and Runs to a map of the words written, with the
// repeated extents expanded. A write into a repeated extent, a
// misaligned address and an extent declared below a present word must
// panic and change nothing; everything else must not panic. The seeds
// are the layouts of repeat_test.go — leading globals, the array, a
// tail with scattered Sets, runs ending right against the extent — and
// rewrites of words already present.
func FuzzImage(f *testing.F) {
	f.Add(encodeOps(
		at(opSetRun, 0, 37, 1, 1), at(opSetRun, 37, 90, 0, 0), at(opRepeat, 127, 6000, 3, 250),
		at(opSet, 6200, 0, 9, 0), at(opSet, 6160, 0, 2, 0), at(opSet, 126, 0, 9, 0)))
	f.Add(encodeOps(at(opSet, 0, 0, 7, 0), at(opRepeat, 1, 10, 1, 3), at(opSet, 11, 0, 4, 0)))
	f.Add(encodeOps(
		at(opRepeat, 4, 100, 5, 2), at(opSet, 4, 0, 1, 0), at(opSet, 103, 0, 1, 0),
		at(opSetRun, 2, 3, 1, 0), at(opSetRun, 103, 2, 1, 0), at(opSetRun, 0, 108, 0, 0), at(opSetRun, 12, 0, 0, 0),
		at(opSetRun, 0, 4, 1, 1), at(opSet, 104, 0, 8, 0), at(opRepeat, 50, 3, 1, 1), at(opSet|0x80, 200, 0, 1, 0)))
	// Rewrites: runs and Sets over words already present.
	f.Add(encodeOps(at(opSetRun, 10, 100, 1, 1), at(opSetRun, 60, 200, 0, 2), at(opSet, 70, 0, 5, 0), at(opSetRun, 0, 300, 3, 0)))
	f.Add(encodeOps(at(opRepeat, 64, 64, 0, 0), at(opRepeat, 128, 1, 2, 0), at(opSetRun, 129, 300, 7, 3), at(opRepeat, 1000, 5, 1, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var im Image
		words := map[int64]uint64{} // word index -> value, dense and repeated
		var reps [][2]int64         // [start, end) word indices
		top := int64(-1)            // highest present word index
		inRep := func(w, n int64) bool {
			for _, r := range reps {
				if w >= r[0] && w < r[1] || w < r[0] && w+n > r[0] {
					return true
				}
			}
			return false
		}
		for ; len(data) >= 7; data = data[7:] {
			kind, misaligned := data[0]&3, data[0]&0x80 != 0
			w := int64(data[1]) | int64(data[2]&0x3f)<<8
			n := int64(data[3]) | int64(data[4]&0x1f)<<8
			v, step := uint64(data[5]), data[6]
			addr := w * WordSize
			if misaligned {
				addr += 4
			}
			var op func()
			var legal bool
			var write map[int64]uint64
			switch kind {
			case opSet:
				op = func() { im.Set(addr, v) }
				legal, write = !inRep(w, 1), map[int64]uint64{w: v}
			case opSetRun:
				n %= 512
				vals := make([]uint64, n)
				write = map[int64]uint64{}
				for k := range vals {
					vals[k] = v + uint64(k)*uint64(step)
					write[w+int64(k)] = vals[k]
				}
				op = func() { im.SetRun(addr, vals) }
				legal = !inRep(w, max(n, 1))
			case opRepeat:
				n++
				period := make([]uint64, 1+int(step)%300)
				for k := range period {
					period[k] = (v + uint64(k)*uint64(step)) % 5 // zeros are common
				}
				write = map[int64]uint64{}
				for k := int64(0); k < n; k++ {
					write[w+k] = period[k%int64(len(period))]
				}
				op = func() { im.repeat(addr, n, period) }
				legal = w > top
				if legal && !misaligned {
					reps = append(reps, [2]int64{w, w + n})
				}
			default:
				continue
			}
			legal = legal && !misaligned
			before := im.Len()
			if panicked := imagePanics(op); panicked == legal {
				t.Fatalf("op %d at word %d (%d words, misaligned %v): panicked %v, want %v", kind, w, n, misaligned, panicked, !legal)
			}
			if !legal {
				if im.Len() != before {
					t.Fatalf("a refused op changed Len: %d -> %d", before, im.Len())
				}
				continue
			}
			for a, x := range write {
				words[a] = x
				top = max(top, a)
			}
			if im.Len() != len(words) {
				t.Fatalf("Len = %d, want %d", im.Len(), len(words))
			}
		}

		for a := int64(-2); a <= top+2; a++ {
			want, wok := words[a]
			if got, ok := im.Get(a * WordSize); got != want || ok != wok {
				t.Fatalf("Get(word %d) = %d, %v; want %d, %v", a, got, ok, want, wok)
			}
		}
		keys := make([]int64, 0, len(words))
		for a := range words {
			keys = append(keys, a)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i, end := 0, int64(-1)
		im.Runs(func(addr int64, vals []uint64) {
			w := addr / WordSize
			if w == end && !inRep(w-1, 2) {
				t.Fatalf("dense runs at word %d are not maximal", w)
			}
			for k, x := range vals {
				if i >= len(keys) || keys[i] != w+int64(k) || words[keys[i]] != x {
					t.Fatalf("Runs yields word %d = %d out of order or unknown", w+int64(k), x)
				}
				i++
			}
			end = w + int64(len(vals))
		})
		if i != len(keys) {
			t.Fatalf("Runs yields %d words, want %d", i, len(keys))
		}
	})
}

func imagePanics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
