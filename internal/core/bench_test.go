package core

import "testing"

// The single-threaded shapes that price the LSA core's per-access cost, all
// on the int lane over the shared counter with 64 objects: an update
// (Transfer) and a long declared read-only scan over genesis versions
// (Scan256) and over written ones (Scan256Stamped). Run with
//
//	go test -run '^$' -bench 'Transfer|Scan256' -benchmem ./internal/core

const benchObjects = 64

func benchTable() []*Object {
	objs := make([]*Object, benchObjects)
	for i := range objs {
		objs[i] = NewObject(big + int64(i))
	}
	return objs
}

// BenchmarkTransfer: 2 ReadInt + 2 WriteInt, moving one unit between two
// neighbouring objects that shift by one on every transaction.
func BenchmarkTransfer(b *testing.B) {
	objs := benchTable()
	th := counterRT().Thread(0)
	var from, to *Object
	fn := func(tx *Tx) error {
		f, _, err := tx.ReadInt(from)
		if err != nil {
			return err
		}
		t, _, err := tx.ReadInt(to)
		if err != nil {
			return err
		}
		if err := tx.WriteInt(from, f-1); err != nil {
			return err
		}
		return tx.WriteInt(to, t+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to = objs[i%benchObjects], objs[(i+1)%benchObjects]
		if err := th.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan256: one declared read-only transaction of 256 ReadInt
// calls, four passes over the 64 objects. Every object still holds its
// genesis version, which is valid since −∞.
func BenchmarkScan256(b *testing.B) {
	benchScan256(b, counterRT(), benchTable())
}

// BenchmarkScan256Stamped: the same scan after every object was written and
// settled once, so each read meets a head stamped with its writer's commit
// time — the state of the accounts under mem_bank's audit.
func BenchmarkScan256Stamped(b *testing.B) {
	rt := counterRT()
	objs := benchTable()
	th := rt.Thread(1)
	for _, o := range objs {
		if err := th.Run(func(tx *Tx) error { return tx.WriteInt(o, big) }); err != nil {
			b.Fatal(err)
		}
		if o.settled(rt.maxVersions, nil).ver.from.Load() == 0 {
			b.Fatal("settled head carries no commit time")
		}
	}
	benchScan256(b, rt, objs)
}

func benchScan256(b *testing.B, rt *Runtime, objs []*Object) {
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		for i := 0; i < 256; i++ {
			if _, _, err := tx.ReadInt(objs[i%benchObjects]); err != nil {
				return err
			}
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.RunReadOnly(fn); err != nil {
			b.Fatal(err)
		}
	}
}
