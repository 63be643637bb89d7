package prog_test

import (
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// checkDecoded holds a decoded slot to its definition: the facts fetch
// and the interpreter used to derive per dynamic instruction, from
// isa.InfoFor and the instruction's register fields.
func checkDecoded(t *testing.T, where string, in isa.Instr, got prog.Decoded) {
	t.Helper()
	inf := isa.InfoFor(in.Op)
	class := inf.Class
	if class == isa.ClassNone {
		class = isa.ClassInt // sync and halt borrow an integer slot
	}
	occ := 1
	if !inf.Pipel {
		occ = inf.Latency
	}
	flags := []struct {
		name string
		bit  prog.Flag
		want bool
	}{
		{"load", prog.IsLoad, inf.Class == isa.ClassLoad},
		{"store", prog.IsStore, inf.Class == isa.ClassStore},
		{"branch", prog.IsBranch, inf.Branch},
		{"conditional branch", prog.IsCondBr, inf.CondBr},
		{"jr", prog.IsJr, in.Op == isa.OpJr},
		{"sync", prog.IsSync, inf.Sync},
		{"reads rs1", prog.ReadsRS1, inf.ReadsRS1 && in.RS1 != isa.RegZero},
		{"reads rs2", prog.ReadsRS2, inf.ReadsRS2 && in.RS2 != isa.RegZero},
		{"reads fs1", prog.ReadsFS1, inf.ReadsFS1},
		{"reads fs2", prog.ReadsFS2, inf.ReadsFS2},
		{"writes rd", prog.WritesRD, inf.WritesRD && in.RD != isa.RegZero},
		{"writes fd", prog.WritesFD, inf.WritesFD},
	}
	var all prog.Flag
	for _, f := range flags {
		all |= f.bit
		if got.Flags&f.bit != 0 != f.want {
			t.Errorf("%s: %v: %s = %v, want %v", where, in, f.name, !f.want, f.want)
		}
	}
	if got.Flags&^all != 0 {
		t.Errorf("%s: %v: stray flag bits %#x", where, in, got.Flags&^all)
	}
	if got.Instr != in || got.Class != class || int(got.Lat) != inf.Latency || int(got.Occ) != occ {
		t.Errorf("%s: decoded %+v, want instr %v class %v latency %d occupancy %d",
			where, got, in, class, inf.Latency, occ)
	}
}

// TestDecodedOpcodes: every opcode, with each register field r0 and
// not, decodes to its definition.
func TestDecodedOpcodes(t *testing.T) {
	for op := 0; op < isa.NumOps; op++ {
		for _, r := range []isa.Reg{isa.RegZero, 7} {
			in := isa.Instr{Op: isa.Op(op), RD: r, RS1: r, RS2: r + 1, FD: r, FS1: r + 2, FS2: r, Imm: -3}
			checkDecoded(t, "opcode table", in, prog.Decode(in))
		}
	}
}

// TestDecodedKernels: Build decodes every static instruction of the six
// applications (both sizes, on the 8- and 32-context machines) and of a
// synthetic program, slot for slot.
func TestDecodedKernels(t *testing.T) {
	type build struct {
		name string
		p    *prog.Program
	}
	var progs []build
	for _, w := range workloads.All() {
		for _, size := range []workloads.Size{workloads.SizeTest, workloads.SizeRef} {
			for _, shape := range [][2]int{{8, 1}, {32, 4}} {
				progs = append(progs, build{w.Name + "/" + size.String(), w.Build(shape[0], shape[1], size)})
			}
		}
	}
	synth := workloads.Synthetic(workloads.SyntheticSpec{ChainLen: 3, IndepOps: 2, MemOps: 2, SerialIters: 8, WarmupIters: 16})
	progs = append(progs, build{"synthetic", synth.Build(8, 1, workloads.SizeTest)})
	for _, b := range progs {
		if len(b.p.Decoded) != len(b.p.Code) {
			t.Fatalf("%s: %d decoded slots for %d instructions", b.name, len(b.p.Decoded), len(b.p.Code))
		}
		for pc, in := range b.p.Code {
			checkDecoded(t, b.name, in, b.p.Decoded[pc])
		}
	}
}
