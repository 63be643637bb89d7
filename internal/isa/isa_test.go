package isa

import (
	"testing"
	"testing/quick"
)

// TestTable1Latencies pins the functional-unit latencies to Table 1 of
// the paper.
func TestTable1Latencies(t *testing.T) {
	cases := []struct {
		op   Op
		lat  int
		pipe bool
		cls  Class
	}{
		{OpAdd, 1, true, ClassInt},
		{OpSub, 1, true, ClassInt},
		{OpAnd, 1, true, ClassInt}, // "log"
		{OpShl, 1, true, ClassInt}, // "shift"
		{OpMul, 2, true, ClassInt},
		{OpDiv, 8, false, ClassInt},
		{OpBeq, 1, true, ClassInt}, // "branch"
		{OpLd, 2, true, ClassLoad},
		{OpSt, 1, true, ClassStore},
		{OpFadd, 1, true, ClassFP},
		{OpFmul, 2, true, ClassFP},
		{OpFdiv, 7, false, ClassFP}, // fpdiv 4/7: double precision
	}
	for _, c := range cases {
		inf := InfoFor(c.op)
		if inf.Latency != c.lat {
			t.Errorf("%v latency = %d, want %d", c.op, inf.Latency, c.lat)
		}
		if inf.Pipel != c.pipe {
			t.Errorf("%v pipelined = %v, want %v", c.op, inf.Pipel, c.pipe)
		}
		if inf.Class != c.cls {
			t.Errorf("%v class = %v, want %v", c.op, inf.Class, c.cls)
		}
	}
}

func TestEveryOpcodeHasInfo(t *testing.T) {
	for op := OpAdd; op < Op(NumOps); op++ {
		inf := InfoFor(op)
		if inf.Name == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if inf.Class != ClassNone && inf.Latency <= 0 {
			t.Errorf("%v: non-positive latency %d", op, inf.Latency)
		}
	}
}

func TestBranchFlags(t *testing.T) {
	conds := []Op{OpBeq, OpBne, OpBlt, OpBge}
	for _, op := range conds {
		inf := InfoFor(op)
		if !inf.Branch || !inf.CondBr {
			t.Errorf("%v: want Branch and CondBr", op)
		}
	}
	uncond := []Op{OpJump, OpJal, OpJr}
	for _, op := range uncond {
		inf := InfoFor(op)
		if !inf.Branch || inf.CondBr {
			t.Errorf("%v: want Branch without CondBr", op)
		}
	}
}

func TestMemFlags(t *testing.T) {
	for _, op := range []Op{OpLd, OpSt, OpLdf, OpStf, OpSwap} {
		if !InfoFor(op).Mem {
			t.Errorf("%v: want Mem", op)
		}
	}
	if InfoFor(OpAdd).Mem {
		t.Error("add must not be a memory op")
	}
}

func TestSyncFlags(t *testing.T) {
	for _, op := range []Op{OpLock, OpUnlock, OpBarrier} {
		inf := InfoFor(op)
		if !inf.Sync || inf.Class != ClassNone {
			t.Errorf("%v: want Sync with ClassNone", op)
		}
	}
}

func TestInstrValidate(t *testing.T) {
	good := Instr{Op: OpAdd, RD: 1, RS1: 2, RS2: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instruction rejected: %v", err)
	}
	bad := []Instr{
		{Op: OpInvalid},
		{Op: Op(200)},
		{Op: OpAdd, RD: 32},
		{Op: OpFadd, FD: 40},
	}
	for _, op := range []Op{OpLock, OpUnlock, OpBarrier} {
		bad = append(bad, Instr{Op: op, Imm: -1}, Instr{Op: op, Imm: MaxSyncID})
		if err := (Instr{Op: op, Imm: MaxSyncID - 1}).Validate(); err != nil {
			t.Errorf("%v #%d rejected: %v", op, MaxSyncID-1, err)
		}
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("invalid instruction accepted: %+v", in)
		}
	}
}

func TestStringIsNonEmptyForAllOps(t *testing.T) {
	f := func(rd, rs1, rs2 uint8, imm int64) bool {
		for op := OpAdd; op < Op(NumOps); op++ {
			in := Instr{Op: op, RD: Reg(rd % 32), RS1: Reg(rs1 % 32), RS2: Reg(rs2 % 32),
				FD: Reg(rd % 32), FS1: Reg(rs1 % 32), FS2: Reg(rs2 % 32), Imm: imm}
			if in.String() == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	for c := ClassNone; c <= ClassFP; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty string", c)
		}
	}
}
