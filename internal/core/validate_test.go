package core

import (
	"fmt"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// TestValidateCoversConstructors holds config.Machine.Validate to every
// constructor below core.New, none of which checks its inputs again:
// each int field of Arch and MemConfig, and the chip count, is set in
// turn to 0, -1, 3, its preset value + 1 and its preset value × 3/2 (and
// the chips to 33), and each machine must be refused by Validate or
// build and run 2000 cycles of swim without a panic.
func TestValidateCoversConstructors(t *testing.T) {
	progs := map[[2]int]*prog.Program{}
	try := func(what string, m config.Machine) {
		if m.Validate() != nil {
			return
		}
		key := [2]int{m.Threads(), m.Chips}
		if progs[key] == nil {
			progs[key] = workloads.Swim().Build(m.Threads(), m.Chips, workloads.SizeTest)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: Validate accepts the machine, but it panics: %v", what, r)
			}
		}()
		s, err := New(m, progs[key])
		if err == nil {
			err = s.RunTo(2000)
		}
		if err != nil {
			t.Logf("%s: %v", what, err)
		}
	}
	base := config.LowEnd(config.SMT2)
	m := base
	for _, st := range []reflect.Value{reflect.ValueOf(&m.Arch).Elem(), reflect.ValueOf(&m.Mem).Elem()} {
		for i := range st.NumField() {
			f := st.Field(i)
			if f.Kind() != reflect.Int {
				continue
			}
			preset := f.Int()
			for _, v := range []int64{0, -1, 3, preset + 1, preset * 3 / 2} {
				f.SetInt(v)
				try(fmt.Sprintf("%s.%s = %d", st.Type().Name(), st.Type().Field(i).Name, v), m)
			}
			f.SetInt(preset)
		}
	}
	for _, chips := range []int{0, -1, 3, base.Chips + 1, base.Chips * 3 / 2, config.MaxChips + 1} {
		m := base
		m.Chips = chips
		try(fmt.Sprintf("Chips = %d", chips), m)
	}
}
