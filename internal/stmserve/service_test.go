package stmserve

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	eng, err := engine.New("norec", engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	svc, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// exec runs one op and fails the test on an op-level error.
func exec(t *testing.T, sess *Session, req *Request) *Response {
	t.Helper()
	var resp Response
	if err := sess.Exec(req, &resp); err != nil {
		t.Fatalf("Exec(%v): %v", req.Op, err)
	}
	return &resp
}

func TestServiceOps(t *testing.T) {
	svc := newTestService(t, Config{Keys: 16, Initial: 100})
	sess := svc.Session()
	defer sess.Close()

	// Read the initial balance.
	if got := exec(t, sess, &Request{Op: OpRead, Key: 3}).Vals[0]; got != 100 {
		t.Fatalf("initial read = %d, want 100", got)
	}
	// Write, read back.
	exec(t, sess, &Request{Op: OpWrite, Key: 3, Val: 250})
	if got := exec(t, sess, &Request{Op: OpRead, Key: 3}).Vals[0]; got != 250 {
		t.Fatalf("read after write = %d, want 250", got)
	}
	// Transfer conserves and moves.
	exec(t, sess, &Request{Op: OpTransfer, Key: 3, Key2: 4, Val: 50})
	if got := exec(t, sess, &Request{Op: OpRead, Key: 3}).Vals[0]; got != 200 {
		t.Fatalf("from after transfer = %d, want 200", got)
	}
	if got := exec(t, sess, &Request{Op: OpRead, Key: 4}).Vals[0]; got != 150 {
		t.Fatalf("to after transfer = %d, want 150", got)
	}
	// Snapshot and batch read see the same values.
	snap := exec(t, sess, &Request{Op: OpSnapshot, Keys: []int{3, 4}})
	if snap.Vals[0] != 200 || snap.Vals[1] != 150 {
		t.Fatalf("snapshot = %v, want [200 150]", snap.Vals)
	}
	br := exec(t, sess, &Request{Op: OpBatchRead, Keys: []int{3, 4}})
	if br.Vals[0] != 200 || br.Vals[1] != 150 {
		t.Fatalf("batch read = %v, want [200 150]", br.Vals)
	}
	// Batch write.
	exec(t, sess, &Request{Op: OpBatchWrite, Keys: []int{0, 1}, Vals: []int64{7, 8}})
	if got := exec(t, sess, &Request{Op: OpSnapshot, Keys: []int{0, 1}}); got.Vals[0] != 7 || got.Vals[1] != 8 {
		t.Fatalf("after batch write = %v, want [7 8]", got.Vals)
	}
	// CAS succeeds only on a match.
	if got := exec(t, sess, &Request{Op: OpCAS, Key: 0, Val: 999, Val2: 1}); got.Bool() {
		t.Fatal("CAS with wrong expectation swapped")
	}
	if got := exec(t, sess, &Request{Op: OpCAS, Key: 0, Val: 7, Val2: 1}); !got.Bool() {
		t.Fatal("CAS with right expectation did not swap")
	}
	if got := exec(t, sess, &Request{Op: OpRead, Key: 0}).Vals[0]; got != 1 {
		t.Fatalf("after CAS = %d, want 1", got)
	}
	// Set ops: add is idempotent-by-report, remove mirrors it.
	if !exec(t, sess, &Request{Op: OpSetAdd, Key: 5}).Bool() {
		t.Fatal("first add reported no change")
	}
	if exec(t, sess, &Request{Op: OpSetAdd, Key: 5}).Bool() {
		t.Fatal("second add reported a change")
	}
	if !exec(t, sess, &Request{Op: OpSetContains, Key: 5}).Bool() {
		t.Fatal("contains after add = false")
	}
	if !exec(t, sess, &Request{Op: OpSetRemove, Key: 5}).Bool() {
		t.Fatal("remove of member reported no change")
	}
	if exec(t, sess, &Request{Op: OpSetRemove, Key: 5}).Bool() {
		t.Fatal("remove of non-member reported a change")
	}
	if exec(t, sess, &Request{Op: OpSetContains, Key: 5}).Bool() {
		t.Fatal("contains after remove = true")
	}
	// Control ops.
	exec(t, sess, &Request{Op: OpPing})
	info := exec(t, sess, &Request{Op: OpInfo})
	if info.Text != "norec" || info.Vals[0] != 16 {
		t.Fatalf("INFO = %q %v, want norec [16]", info.Text, info.Vals)
	}
	st := exec(t, sess, &Request{Op: OpStats})
	var decoded Stats
	if err := json.Unmarshal([]byte(st.Text), &decoded); err != nil {
		t.Fatalf("STATS payload does not parse: %v", err)
	}
	if decoded.Engine != "norec" || decoded.Ops == 0 {
		t.Fatalf("STATS = %+v, want engine norec with ops recorded", decoded)
	}
	if strings.ContainsRune(st.Text, ' ') {
		t.Fatalf("STATS text contains a space (breaks the wire Text token): %q", st.Text)
	}
}

func TestServiceErrors(t *testing.T) {
	svc := newTestService(t, Config{Keys: 8})
	sess := svc.Session()
	defer sess.Close()

	var resp Response
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"invalid op", Request{Op: OpInvalid}, "invalid op"},
		{"key out of range", Request{Op: OpRead, Key: 8}, "out of range"},
		{"negative key", Request{Op: OpWrite, Key: -1}, "out of range"},
		{"self transfer", Request{Op: OpTransfer, Key: 2, Key2: 2}, "itself"},
		{"transfer bad to", Request{Op: OpTransfer, Key: 2, Key2: 99}, "out of range"},
		{"empty snapshot", Request{Op: OpSnapshot}, "without keys"},
		{"batch key out of range", Request{Op: OpBatchRead, Keys: []int{1, 42}}, "out of range"},
		{"ragged batch write", Request{Op: OpBatchWrite, Keys: []int{1, 2}, Vals: []int64{5}}, "2 keys but 1 values"},
	}
	for _, tc := range cases {
		err := sess.Exec(&tc.req, &resp)
		if err == nil || resp.Err == "" {
			t.Errorf("%s: no error (resp.Err = %q)", tc.name, resp.Err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if resp.Err != err.Error() {
			t.Errorf("%s: resp.Err %q != err %q", tc.name, resp.Err, err)
		}
	}

	// The error counters saw every failure.
	st := svc.Stats()
	if st.Errs != uint64(len(cases)) {
		t.Fatalf("Stats.Errs = %d, want %d", st.Errs, len(cases))
	}
}

func TestServiceStatsPerOp(t *testing.T) {
	svc := newTestService(t, Config{Keys: 8})
	sess := svc.Session()
	defer sess.Close()
	for i := 0; i < 5; i++ {
		exec(t, sess, &Request{Op: OpRead, Key: i})
	}
	exec(t, sess, &Request{Op: OpWrite, Key: 0, Val: 9})

	st := svc.Stats()
	if st.Ops != 6 {
		t.Fatalf("Stats.Ops = %d, want 6", st.Ops)
	}
	byOp := map[string]OpStat{}
	for _, o := range st.PerOp {
		byOp[o.Op] = o
	}
	if byOp["read"].Ops != 5 || byOp["write"].Ops != 1 {
		t.Fatalf("per-op = %+v, want read=5 write=1", byOp)
	}
	for _, o := range st.PerOp {
		if o.Latency == nil {
			t.Fatalf("op %s has no latency summary", o.Op)
		}
		if err := o.Latency.Validate(); err != nil {
			t.Fatalf("op %s latency summary invalid: %v", o.Op, err)
		}
	}
	// Engine-side counters flowed through.
	if st.EngineStats.Commits == 0 {
		t.Fatal("engine stats show no commits")
	}
}

func TestServiceClose(t *testing.T) {
	for _, mode := range []string{ModeThread, ModePool} {
		t.Run(mode, func(t *testing.T) {
			eng := engine.MustNew("norec", engine.Options{})
			svc, err := New(eng, Config{Keys: 4, Mode: mode})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			sess := svc.Session()
			exec(t, sess, &Request{Op: OpRead, Key: 0})
			svc.Close()
			svc.Close() // idempotent
			var resp Response
			if err := sess.Exec(&Request{Op: OpRead, Key: 0}, &resp); err != ErrClosed {
				t.Fatalf("Exec after Close = %v, want ErrClosed", err)
			}
			sess.Close()
		})
	}
}

func TestServiceConfigRejected(t *testing.T) {
	eng := engine.MustNew("norec", engine.Options{})
	if _, err := New(eng, Config{Keys: -1}); err == nil {
		t.Fatal("negative Keys accepted")
	}
	if _, err := New(eng, Config{Mode: "fiber"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestOpTextRoundTrip(t *testing.T) {
	for op := OpPing; op < numOps; op++ {
		text, err := op.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", op, err)
		}
		var back Op
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: UnmarshalText(%q): %v", op, text, err)
		}
		if back != op {
			t.Fatalf("round trip %v → %q → %v", op, text, back)
		}
	}
	var bad Op
	if err := bad.UnmarshalText([]byte("warp")); err == nil {
		t.Fatal("unknown op text accepted")
	}
}

// threadsMade reads how many engine threads svc has made.
func threadsMade(svc *Service) int {
	svc.threads.mu.Lock()
	defer svc.threads.mu.Unlock()
	return svc.threads.made
}

// TestPoolModeSharedThreads checks the defining property of ModePool: many
// sessions, GOMAXPROCS engine threads, and requests still execute correctly
// when sessions outnumber threads.
func TestPoolModeSharedThreads(t *testing.T) {
	svc := newTestService(t, Config{Keys: 8, Mode: ModePool})
	done := make(chan error)
	procs := runtime.GOMAXPROCS(0)
	sessions := 4 * procs
	for i := 0; i < sessions; i++ {
		go func(id int) {
			sess := svc.Session()
			defer sess.Close()
			var resp Response
			for j := 0; j < 50; j++ {
				if err := sess.Exec(&Request{Op: OpTransfer, Key: id % 8, Key2: (id + 1) % 8, Val: 1}, &resp); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatalf("session failed: %v", err)
		}
	}
	// Pool mode created exactly GOMAXPROCS engine threads (+0 per session).
	if got := threadsMade(svc); got != procs {
		t.Fatalf("pool mode allocated %d engine threads, want %d", got, procs)
	}
	// Conservation: transfers moved value around but the sum is intact.
	sess := svc.Session()
	defer sess.Close()
	keys := make([]int, 8)
	for i := range keys {
		keys[i] = i
	}
	snap := exec(t, sess, &Request{Op: OpSnapshot, Keys: keys})
	var sum int64
	for _, v := range snap.Vals {
		sum += v
	}
	if want := int64(8 * 1000); sum != want {
		t.Fatalf("sum after transfers = %d, want %d", sum, want)
	}
}

// newLSAService builds a ModeThread Service over lsa/shared, whose engine
// threads each keep their own recycled records and versions.
func newLSAService(t *testing.T) *Service {
	t.Helper()
	eng, err := engine.New("lsa/shared", engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	svc, err := New(eng, Config{Keys: 8, Initial: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestSessionSequentialReuseThread: in ModeThread a closed session hands its
// engine thread to the next one, so sessions opened one after another share
// a single thread.
func TestSessionSequentialReuseThread(t *testing.T) {
	svc := newLSAService(t)
	for i := range 1000 {
		sess := svc.Session()
		exec(t, sess, &Request{Op: OpTransfer, Key: i % 8, Key2: (i + 1) % 8, Val: 1})
		sess.Close()
	}
	if got := threadsMade(svc); got != 1 {
		t.Fatalf("1000 sequential sessions created %d engine threads, want 1", got)
	}
}

// TestSessionConcurrentDistinctThreads: sessions open at the same time never
// share an engine thread, and once closed their threads serve new sessions,
// also when two goroutines open and close sessions side by side.
func TestSessionConcurrentDistinctThreads(t *testing.T) {
	svc := newLSAService(t)
	thread := func(s *Session) engine.Thread { return s.ap.th }
	for range 3 {
		a, b := svc.Session(), svc.Session()
		if thread(a) == thread(b) {
			t.Fatal("two open sessions share one engine thread")
		}
		exec(t, a, &Request{Op: OpTransfer, Key: 0, Key2: 1, Val: 1})
		exec(t, b, &Request{Op: OpTransfer, Key: 1, Key2: 0, Val: 1})
		a.Close()
		b.Close()
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp Response
			for i := range 200 {
				sess := svc.Session()
				if err := sess.Exec(&Request{Op: OpTransfer, Key: g, Key2: 2 + i%6, Val: 1}, &resp); err != nil {
					t.Error(err)
				}
				sess.Close()
			}
		}()
	}
	wg.Wait()
	if got := threadsMade(svc); got != 2 {
		t.Fatalf("two sessions at a time created %d engine threads, want 2", got)
	}
}

// TestSessionExecAfterClose: a closed session fails every op with ErrClosed
// and never runs on the thread it handed on.
func TestSessionExecAfterClose(t *testing.T) {
	for _, mode := range []string{ModeThread, ModePool} {
		t.Run(mode, func(t *testing.T) {
			svc := newTestService(t, Config{Keys: 4, Initial: 100, Mode: mode})
			old := svc.Session()
			old.Close()
			old.Close() // idempotent
			sess := svc.Session()
			defer sess.Close()
			for _, req := range []Request{{Op: OpPing}, {Op: OpWrite, Key: 0, Val: 7}} {
				var resp Response
				if err := old.Exec(&req, &resp); err != ErrClosed || resp.Err != ErrClosed.Error() {
					t.Fatalf("%v on a closed session = %v %q, want ErrClosed", req.Op, err, resp.Err)
				}
			}
			if got := exec(t, sess, &Request{Op: OpRead, Key: 0}).Vals[0]; got != 100 {
				t.Fatalf("key 0 = %d after a write on a closed session, want 100", got)
			}
		})
	}
}

// blockingEngine is norec with engine threads whose transactions block
// until release is closed, announcing each on entered.
type blockingEngine struct {
	engine.Engine
	entered chan struct{}
	release chan struct{}
}

func (e *blockingEngine) Thread(int) engine.Thread { return blockingThread{e} }

type blockingThread struct{ e *blockingEngine }

func (blockingThread) ID() int { return 0 }

func (t blockingThread) Run(func(engine.Txn) error) error {
	t.e.entered <- struct{}{}
	<-t.e.release
	return nil
}

func (t blockingThread) RunReadOnly(fn func(engine.Txn) error) error { return t.Run(fn) }

// TestPoolCloseWakesWaiter: with every pool thread lent to a blocked
// request, an Exec waiting for a thread returns ErrClosed once the Service
// closes, and the requests in flight still finish.
func TestPoolCloseWakesWaiter(t *testing.T) {
	eng := &blockingEngine{
		Engine:  engine.MustNew("norec", engine.Options{}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	svc, err := New(eng, Config{Keys: 4, Mode: ModePool})
	if err != nil {
		t.Fatal(err)
	}
	write := func(done chan<- error) {
		sess := svc.Session()
		defer sess.Close()
		var resp Response
		done <- sess.Exec(&Request{Op: OpWrite, Key: 0, Val: 1}, &resp)
	}
	procs := runtime.GOMAXPROCS(0)
	inFlight := make(chan error, procs)
	for range procs {
		go write(inFlight)
		<-eng.entered
	}
	waiter := make(chan error, 1)
	go write(waiter)
	// Close only once the waiter is parked in get.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*threadSet).get") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no Exec ever waited for a pool thread")
		}
	}
	svc.Close()
	select {
	case err := <-waiter:
		if err != ErrClosed {
			t.Fatalf("waiting Exec = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Service.Close did not wake the Exec waiting for a thread")
	}
	close(eng.release)
	for range procs {
		if err := <-inFlight; err != nil {
			t.Fatalf("request in flight at Close = %v, want nil", err)
		}
	}
}
