package prog

import "clustersmt/internal/isa"

// Flag is a set of an instruction's decoded facts (Decoded.Flags).
type Flag uint16

// Decoded facts. The register-use bits name the operands an instruction
// really reads and renames: an integer source or destination that is r0
// (hard-wired zero) is left out, so no consumer ever waits on it and no
// rename register is spent on it.
const (
	IsLoad   Flag = 1 << iota // load unit: loads and swap
	IsStore                   // store unit
	IsBranch                  // any control transfer
	IsCondBr                  // conditional branch, predicted by the 2-bit table
	IsJr                      // register-indirect jump, predicted by the BTB
	IsSync                    // lock, unlock or barrier
	ReadsRS1
	ReadsRS2
	ReadsFS1
	ReadsFS2
	WritesRD
	WritesFD
)

// Decoded is one static instruction with its opcode's Table 1 facts
// resolved, so fetch, the interpreter and the functional scheduler read
// one slot per dynamic instruction instead of consulting isa.InfoFor.
type Decoded struct {
	Instr isa.Instr
	Class isa.Class // functional unit; the ClassNone pseudo-ops (sync, halt) borrow an integer slot
	Lat   uint8     // Table 1 latency
	Occ   uint8     // cycles the unit stays busy once issued: 1 when pipelined, else Lat
	Flags Flag
}

// decode resolves in's facts from the opcode table and its register
// fields.
func decode(in isa.Instr) Decoded {
	inf := isa.InfoFor(in.Op)
	d := Decoded{Instr: in, Class: inf.Class, Lat: uint8(inf.Latency), Occ: 1}
	if d.Class == isa.ClassNone {
		d.Class = isa.ClassInt
	}
	if !inf.Pipel {
		d.Occ = d.Lat
	}
	for _, b := range [...]struct {
		on bool
		f  Flag
	}{
		{inf.Class == isa.ClassLoad, IsLoad},
		{inf.Class == isa.ClassStore, IsStore},
		{inf.Branch, IsBranch},
		{inf.CondBr, IsCondBr},
		{in.Op == isa.OpJr, IsJr},
		{inf.Sync, IsSync},
		{inf.ReadsRS1 && in.RS1 != isa.RegZero, ReadsRS1},
		{inf.ReadsRS2 && in.RS2 != isa.RegZero, ReadsRS2},
		{inf.ReadsFS1, ReadsFS1},
		{inf.ReadsFS2, ReadsFS2},
		{inf.WritesRD && in.RD != isa.RegZero, WritesRD},
		{inf.WritesFD, WritesFD},
	} {
		if b.on {
			d.Flags |= b.f
		}
	}
	return d
}
