package engine

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/timebase"
)

func TestRegistryNames(t *testing.T) {
	want := []string{
		"glock", "lsa/extsync", "lsa/ideal", "lsa/mmtimer", "lsa/shared",
		"lsa/tl2ts", "norec", "rstmval", "tl2", "wordstm",
	}
	if names := Names(); !reflect.DeepEqual(names, want) {
		t.Errorf("registered in-memory backends %v, want exactly %v", names, want)
	}
}

// TestRegisteredEngineCount is the registration gate CI runs with -race
// -short: a backend whose init forgot to Register (or a registry refactor
// that drops one) fails the build here, not in a bench someone runs later.
func TestRegisteredEngineCount(t *testing.T) {
	const floor = 10
	if names := Names(); len(names) < floor {
		t.Fatalf("only %d engines registered, want ≥ %d: %v", len(names), floor, names)
	}
}

// TestRegisterDuplicatePanics: a second Register under an existing name must
// panic with a message naming the backend — silent overwrites would let two
// init functions fight over a name and benchmark the wrong engine.
func TestRegisterDuplicatePanics(t *testing.T) {
	const name = "test/dup-probe"
	factory := func(Options) (Engine, error) { return nil, nil }
	Register(name, Info{}, factory)
	defer func() {
		// Remove the probe so registry-iterating tests never see it.
		registryMu.Lock()
		delete(registry, name)
		registryMu.Unlock()
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, name) {
			t.Errorf("panic message must name the duplicate backend, got %v", r)
		}
	}()
	Register(name, Info{}, factory)
}

// TestDescribe: every registered backend carries a registration-time Info
// whose Name matches its registry key, with a nonempty summary and tunables
// drawn from the BindFlags flag vocabulary.
func TestDescribe(t *testing.T) {
	knownTunables := map[string]bool{
		"nodes": true, "max-versions": true, "deviation": true, "words": true,
	}
	for _, name := range Names() {
		info, ok := Describe(name)
		if !ok {
			t.Fatalf("Describe(%q) not found", name)
		}
		if info.Name != name {
			t.Errorf("Describe(%q).Name = %q", name, info.Name)
		}
		if info.Summary == "" {
			t.Errorf("Describe(%q): empty summary", name)
		}
		for _, tn := range info.Capabilities.Tunables {
			if !knownTunables[tn] {
				t.Errorf("Describe(%q): tunable %q is not a BindFlags flag name", name, tn)
			}
		}
	}
	if _, ok := Describe("no-such-stm"); ok {
		t.Error("Describe of an unknown backend must report !ok")
	}
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() returned %d entries, registry has %d", len(infos), len(Names()))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Errorf("Infos() not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
}

// TestCapabilityClaims cross-checks every backend's declared capabilities
// against what it actually implements and accepts — the conformance gate that
// keeps Describe's answers truthful, so callers like stmserve's /engines
// endpoint never need ad-hoc type assertions.
func TestCapabilityClaims(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			info, ok := Describe(name)
			if !ok {
				t.Fatalf("no Info for %q", name)
			}
			eng := MustNew(name, Options{Nodes: 1})
			if _, has := eng.(Durable); has != info.Capabilities.Durable {
				t.Errorf("Durable claim %v, implementation says %v",
					info.Capabilities.Durable, has)
			}
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			new(Options).BindFlags(fs)
			for _, tun := range info.Capabilities.Tunables {
				if fs.Lookup(tun) == nil {
					t.Errorf("tunable %q names no BindFlags flag", tun)
				}
			}
		})
	}
}

// TestOptionsValidate: engine.New must reject option values no backend can
// honor with an error naming the offending field, instead of panicking or
// silently clamping inside a backend.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring the error must contain
	}{
		{"negative nodes", Options{Nodes: -1}, "Nodes"},
		{"negative max versions", Options{MaxVersions: -2}, "MaxVersions"},
		{"negative deviation", Options{Deviation: -5}, "Deviation"},
		{"negative words", Options{Words: -3}, "Words"},
		{"unknown fsync policy", Options{Fsync: "sometimes"}, "fsync policy"},
		{"negative segment bytes", Options{SegmentBytes: -1}, "SegmentBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
			// The rejection must hold through New on every backend, relevant
			// tunable or not — a bad value is a caller bug either way.
			for _, eng := range []string{"norec", "lsa/shared"} {
				if _, err := New(eng, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("New(%q) = %v, want error mentioning %q", eng, err, tc.want)
				}
			}
		})
	}
	good := []Options{
		{}, {Nodes: 4}, {MaxVersions: 1},
		{Fsync: "always"}, {Fsync: "group"}, {Fsync: "never"},
		{SnapshotBytes: -1}, {SnapshotBytes: 1 << 20},
		{SegmentBytes: 1 << 16},
	}
	for _, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}
}

// TestNodesBeyondClockIDs: the per-node time bases give every node its own
// clock ID, and a stamp word holds timebase.MaxCID of them, so lsa/extsync
// refuses more nodes.
func TestNodesBeyondClockIDs(t *testing.T) {
	opt := Options{Nodes: timebase.MaxCID + 1}
	if _, err := New("lsa/extsync", opt); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("New(lsa/extsync, Nodes %d) = %v, want an error about nodes", opt.Nodes, err)
	}
	opt.Nodes = timebase.MaxCID
	if _, err := New("lsa/extsync", opt); err != nil {
		t.Errorf("New(lsa/extsync, Nodes %d): %v", opt.Nodes, err)
	}
}

// TestBindFlags: the shared flag surface parses into the Options fields
// under the documented names, so every cmd driver exposes identical backend
// tunables.
func TestBindFlags(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.BindFlags(fs)
	args := []string{
		"-nodes", "4", "-max-versions", "2", "-deviation", "500",
		"-words", "1024",
		"-wal", "/tmp/wal", "-fsync", "always", "-snapshot", "4096",
		"-segment", "65536",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{
		Nodes: 4, MaxVersions: 2, Deviation: 500, Words: 1024,
		WALDir: "/tmp/wal", Fsync: "always", SnapshotBytes: 4096,
		SegmentBytes: 65536,
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parsed options %+v, want %+v", o, want)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("parsed options must validate: %v", err)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	_, err := New("no-such-stm", Options{})
	if err == nil {
		t.Fatal("unknown backend must error")
	}
	if !strings.Contains(err.Error(), "tl2") {
		t.Errorf("error should list registered backends: %v", err)
	}
}

func TestEveryBackendRoundTrips(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 2})
			if eng.Name() != name {
				t.Errorf("Name() = %q, want %q", eng.Name(), name)
			}
			c := eng.NewCell(41)
			th := eng.Thread(0)
			if err := th.Run(func(tx Txn) error {
				return Update(tx, c, func(v int) int { return v + 1 })
			}); err != nil {
				t.Fatal(err)
			}
			var got int
			if err := th.RunReadOnly(func(tx Txn) error {
				var err error
				got, err = Get[int](tx, c)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Errorf("read back %d, want 42", got)
			}
			// Drive UpdateInt directly (Get/Set cover ReadInt/WriteInt).
			if err := th.Run(func(tx Txn) error {
				done, err := tx.UpdateInt(c, func(v int64) int64 { return v * 2 })
				if err != nil {
					return err
				}
				if !done {
					return fmt.Errorf("UpdateInt refused an int-lane cell")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := th.RunReadOnly(func(tx Txn) error {
				var err error
				got, err = Get[int](tx, c)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != 84 {
				t.Errorf("UpdateInt result = %d, want 84", got)
			}
			if s := eng.Stats(); s.Commits < 3 {
				t.Errorf("stats did not count commits: %+v", s)
			}
		})
	}
}

// TestIntLaneUnboxed ratchets the whole engine-layer stack: a typed
// Get/Set read-modify-write of values far outside the runtime's small-int
// cache, through Thread.Run, the cached adapter closure, the IntTxn
// dispatch in the accessors, and the backend's numeric lane. The budgets
// are end-to-end allocations per committed transaction; a declared read-only
// Get costs none on any backend (the LSA core runs those attempts in one
// per-thread record).
func TestIntLaneUnboxed(t *testing.T) {
	const big = 1 << 40
	budgets := map[string]float64{
		"norec":      0,
		"glock":      0,
		"rstmval":    0,
		"tl2":        0,
		"lsa/shared": 2, // the attempt's record + its version chunk
		"wordstm":    6, // native word-Tx machinery (not tuned); the tagged lane still never boxes
	}
	for name, budget := range budgets {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 1})
			c := eng.NewCell(big)
			th := eng.Thread(0)
			fn := func(tx Txn) error {
				v, err := Get[int](tx, c)
				if err != nil {
					return err
				}
				return Set(tx, c, big+(v+1)%100)
			}
			step := func() {
				if err := th.Run(fn); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if got := testing.AllocsPerRun(200, step); got > budget {
				t.Errorf("%s: %.1f allocs per engine-layer int transaction, budget %.0f", name, got, budget)
			}
			get := func(tx Txn) error {
				_, err := Get[int](tx, c)
				return err
			}
			if got := testing.AllocsPerRun(200, func() {
				if err := th.RunReadOnly(get); err != nil {
					t.Fatal(err)
				}
			}); got > 0 {
				t.Errorf("%s: %.1f allocs per engine-layer read-only int transaction, budget 0", name, got)
			}
		})
	}
}

func TestTypedAccessorMismatch(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 1})
			c := eng.NewCell("")
			th := eng.Thread(0)
			// Get/Set's boxed fallback: a string round-trips.
			if err := th.Run(func(tx Txn) error { return Set(tx, c, "a string") }); err != nil {
				t.Fatal(err)
			}
			if err := th.RunReadOnly(func(tx Txn) error {
				got, err := Get[string](tx, c)
				if err == nil && got != "a string" {
					t.Errorf("Get[string] = %q, want %q", got, "a string")
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			err := th.Run(func(tx Txn) error {
				_, err := Get[int](tx, c)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "holds string") {
				t.Errorf("type mismatch must surface, got %v", err)
			}
		})
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 1})
			c := eng.NewCell(0)
			th := eng.Thread(0)
			if err := th.RunReadOnly(func(tx Txn) error {
				return tx.Write(c, 1)
			}); err == nil {
				t.Error("write inside read-only transaction must fail")
			}
		})
	}
}

func TestWordEncoding(t *testing.T) {
	e, err := New("wordstm", Options{Words: 64})
	if err != nil {
		t.Fatal(err)
	}
	we := e.(*wordEngine)
	type pair struct{ a, b int }
	cases := []any{0, 1, -1, 12345, -12345, immediateMax - 1, -immediateMax + 1,
		immediateMax, -immediateMax, int(1) << 62, "hello", pair{3, 4}, []int{1, 2}}
	for _, v := range cases {
		w, _ := we.encode(v)
		got := we.decode(w)
		switch want := v.(type) {
		case []int:
			g, ok := got.([]int)
			if !ok || len(g) != len(want) {
				t.Errorf("encode/decode %v → %v", v, got)
			}
		default:
			if got != v {
				t.Errorf("encode/decode %v (%T) → %v (%T)", v, v, got, got)
			}
		}
	}
	// Small ints must stay immediate (no boxing).
	before := len(we.boxes)
	we.encode(7)
	we.encode(-7)
	if len(we.boxes) != before {
		t.Errorf("small ints were boxed: %d → %d boxes", before, len(we.boxes))
	}
	// Freed slots must be reused before the table grows.
	_, idx := we.encode("reusable")
	if idx < 0 {
		t.Fatal("string encode did not box")
	}
	grown := len(we.boxes)
	we.freeBoxes([]int64{idx})
	_, idx2 := we.encode("replacement")
	if idx2 != idx {
		t.Errorf("freed slot %d not reused (got %d)", idx, idx2)
	}
	if len(we.boxes) != grown {
		t.Errorf("table grew past a free slot: %d → %d", grown, len(we.boxes))
	}
}

func TestWordCellExhaustion(t *testing.T) {
	eng, err := New("wordstm", Options{Words: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.NewCell(1)
	eng.NewCell(2)
	defer func() {
		if recover() == nil {
			t.Error("third cell must panic on exhaustion")
		}
	}()
	eng.NewCell(3)
}

func TestCrossEngineCellPanics(t *testing.T) {
	lsa := MustNew("lsa/shared", Options{})
	tl2e := MustNew("tl2", Options{})
	c := lsa.NewCell(0)
	th := tl2e.Thread(0)
	defer func() {
		if recover() == nil {
			t.Error("foreign cell must panic")
		}
	}()
	_ = th.Run(func(tx Txn) error {
		_, err := tx.Read(c)
		return err
	})
}

// TestNestedRunSameThread: a transaction body that starts another
// transaction on the same Thread must leave the outer retry loop's cached
// closure intact — regression test for the save/restore in the adapter
// threads. Only the engines whose native runtimes tolerate nesting are
// driven: the LSA core builds a fresh Tx per attempt and wordstm hands a
// nested Run a record of its own, so the nested Run executes as a flat,
// independent transaction; the other recycled-Tx engines (norec, tl2,
// glock, rstmval) share one native transaction per thread and do not
// support nesting at any layer.
func TestNestedRunSameThread(t *testing.T) {
	for _, name := range []string{"lsa/shared", "wordstm"} {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 1})
			a, b := eng.NewCell(0), eng.NewCell(0)
			th := eng.Thread(0)
			if err := th.Run(func(tx Txn) error {
				if err := Set(tx, a, 1); err != nil {
					return err
				}
				return th.Run(func(inner Txn) error { return Set(inner, b, 2) })
			}); err != nil {
				t.Fatal(err)
			}
			var av, bv int
			if err := th.RunReadOnly(func(tx Txn) error {
				var err error
				if av, err = Get[int](tx, a); err != nil {
					return err
				}
				bv, err = Get[int](tx, b)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if av != 1 || bv != 2 {
				t.Errorf("nested run results: a=%d b=%d, want 1/2", av, bv)
			}
		})
	}
}

// TestIntLaneWideValues: values past wordstm's 63-bit immediate range must
// still round-trip through the typed accessors on every backend — the word
// engine boxes them into its side table but serves them back through the
// numeric lane like everyone else.
func TestIntLaneWideValues(t *testing.T) {
	const wide = int64(1) << 62
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng := MustNew(name, Options{Nodes: 1})
			th := eng.Thread(0)
			c := eng.NewCell(0)
			if err := th.Run(func(tx Txn) error { return Set(tx, c, wide) }); err != nil {
				t.Fatal(err)
			}
			var got64 int64
			var gotInt int
			if err := th.RunReadOnly(func(tx Txn) error {
				var err error
				if got64, err = Get[int64](tx, c); err != nil {
					return err
				}
				gotInt, err = Get[int](tx, c)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got64 != wide || gotInt != int(wide) {
				t.Errorf("wide round trip: int64=%d int=%d, want %d", got64, gotInt, wide)
			}
		})
	}
}
