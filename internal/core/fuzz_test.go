package core

import (
	"errors"
	"testing"

	"repro/internal/timebase"
)

// FuzzEngineAgainstModel interprets the fuzz input as a program over four
// objects — reads, writes, transaction boundaries, user aborts — executed
// against the real engine and a plain in-memory model simultaneously. Any
// divergence (wrong read, lost/phantom write, failed rollback) fails.
func FuzzEngineAgainstModel(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0xFF})
	f.Add([]byte{0x01, 0x41, 0x81, 0xC1, 0x02, 0x42})
	f.Add([]byte{0xF0, 0x0F, 0xAA, 0x55})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			program = program[:512]
		}
		rt := MustRuntime(Config{TimeBase: timebase.NewSharedCounter()})
		const nObjs = 4
		objs := make([]*Object, nObjs)
		model := make([]int, nObjs)
		for i := range objs {
			objs[i] = NewObject(0)
		}
		th := rt.Thread(0)
		boom := errors.New("rollback")

		pc := 0
		for pc < len(program) {
			// One transaction consumes bytes until a terminator byte
			// (≥ 0xF0 → user abort, ≥ 0xE0 → commit) or input ends.
			scratch := append([]int(nil), model...)
			abort := false
			start := pc
			err := th.Run(func(tx *Tx) error {
				copy(scratch, model)
				abort = false
				for pc = start; pc < len(program); pc++ {
					b := program[pc]
					if b >= 0xF0 {
						pc++
						abort = true
						return boom
					}
					if b >= 0xE0 {
						pc++
						return nil
					}
					obj := int(b) % nObjs
					if b&0x10 != 0 {
						scratch[obj] += int(b>>5) + 1
						if err := tx.Write(objs[obj], scratch[obj]); err != nil {
							return err
						}
					} else {
						v, err := tx.Read(objs[obj])
						if err != nil {
							return err
						}
						if v.(int) != scratch[obj] {
							t.Fatalf("pc=%d: read objs[%d] = %v, model %d", pc, obj, v, scratch[obj])
						}
					}
				}
				return nil
			})
			switch {
			case abort && errors.Is(err, boom):
				// Rolled back; model unchanged.
			case !abort && err == nil:
				model = scratch
			default:
				t.Fatalf("unexpected result err=%v abort=%v", err, abort)
			}
		}
		for i, o := range objs {
			if got := mustReadIntFuzz(t, rt, o); got != model[i] {
				t.Fatalf("final objs[%d] = %d, model %d", i, got, model[i])
			}
		}
	})
}

func mustReadIntFuzz(t *testing.T, rt *Runtime, o *Object) int {
	t.Helper()
	var out int
	if err := rt.Thread(7).RunReadOnly(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		out = v.(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
