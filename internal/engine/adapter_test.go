package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestValueLaneAdapter drives the one generic adapter (adapter.go) through
// every backend it serves and checks, uniformly, what the per-backend copies
// it replaced each promised on their own.
func TestValueLaneAdapter(t *testing.T) {
	backends := []struct {
		name     string
		cellType string // what the foreign-cell panic must name as expected
	}{
		{name: "norec", cellType: "*norec.Object"},
		{name: "tl2", cellType: "*tl2.Object"},
		{name: "rstmval", cellType: "*rstmval.Object"},
		{name: "glock", cellType: "*glock.Object"},
	}
	foreign := MustNew("lsa/shared", Options{}).NewCell(0)
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			eng := MustNew(b.name, Options{Nodes: 1})
			th := eng.Thread(0)
			cells := make([]Cell, 8)
			for i := range cells {
				cells[i] = eng.NewCell(i)
			}

			ac, ok := th.(AttemptCounter)
			if !ok {
				t.Fatal("thread does not implement AttemptCounter")
			}
			before := ac.Attempts()
			// A wide read-modify-write through the int lane.
			if err := th.Run(func(tx Txn) error {
				var sum int64
				for _, c := range cells {
					n, isNum, err := tx.ReadInt(c)
					if err != nil {
						return err
					}
					if !isNum {
						t.Errorf("ReadInt reports a non-numeric payload in an int cell")
					}
					sum += n
				}
				if sum != 28 {
					t.Errorf("sum = %d, want 28", sum)
				}
				if err := Update(tx, cells[0], func(n int64) int64 { return n + sum }); err != nil {
					return err
				}
				return tx.WriteInt(cells[1], sum)
			}); err != nil {
				t.Fatal(err)
			}
			if got := ac.Attempts() - before; got != 1 {
				t.Errorf("Attempts advanced by %d over one uncontended transaction, want 1", got)
			}

			// Writes on either lane are rejected inside RunReadOnly.
			if err := th.RunReadOnly(func(tx Txn) error { return tx.Write(cells[2], 1) }); err == nil {
				t.Error("Write inside RunReadOnly must fail")
			}
			if err := th.RunReadOnly(func(tx Txn) error { return tx.WriteInt(cells[2], 1) }); err == nil {
				t.Error("WriteInt inside RunReadOnly must fail")
			}
			if err := th.RunReadOnly(func(tx Txn) error {
				if v, err := Get[int](tx, cells[0]); err != nil || v != 28 {
					t.Errorf("cell 0 = %d, %v; want 28", v, err)
				}
				if v, err := tx.Read(cells[2]); err != nil || v != 2 {
					t.Errorf("cell 2 = %v, %v; want 2 (rejected writes must not land)", v, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			if s := eng.Stats(); s.Commits != 2 || s.UserAborts != 2 {
				t.Errorf("commits = %d, user aborts = %d; want 2 and 2", s.Commits, s.UserAborts)
			}

			// A cell from another backend panics on every access path, and
			// the message names both the received and the expected type.
			ops := map[string]func(Txn) error{
				"Read":     func(tx Txn) error { _, err := tx.Read(foreign); return err },
				"Write":    func(tx Txn) error { return tx.Write(foreign, 1) },
				"ReadInt":  func(tx Txn) error { _, _, err := tx.ReadInt(foreign); return err },
				"WriteInt": func(tx Txn) error { return tx.WriteInt(foreign, 1) },
			}
			for op, fn := range ops {
				msg := panicMessage(func() { _ = eng.Thread(1).Run(fn) })
				if !strings.Contains(msg, "*core.Object") || !strings.Contains(msg, b.cellType) {
					t.Errorf("%s with a foreign cell: panic %q, want one naming *core.Object and %s",
						op, msg, b.cellType)
				}
			}
		})
	}
}

// panicMessage runs f and returns what it panicked with ("" if it returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
