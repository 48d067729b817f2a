// The replication fault matrix: every scenario runs primary and follower in
// one process over fault-injectable Link pairs, so partition, slow-follower,
// torn-stream and promote-during-catchup are deterministic and race-clean.
package replica

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
)

// node is one replica-set member: a durable engine over norec with nCells
// int cells created in the deterministic order the replication contract
// requires of both sides.
type node struct {
	eng   *durable.Engine
	cells []engine.Cell
}

func newNode(t *testing.T, nCells int) *node {
	t.Helper()
	e, err := durable.Wrap(engine.MustNew("norec", engine.Options{}), durable.Options{
		Dir:           t.TempDir(),
		Fsync:         durable.FsyncNever,
		SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &node{eng: e}
	for i := 0; i < nCells; i++ {
		n.cells = append(n.cells, e.NewCell(0))
	}
	t.Cleanup(func() { e.WALClose() })
	return n
}

// read returns cell i's value through a read-only transaction.
func (n *node) read(t *testing.T, i int) int {
	t.Helper()
	var got int
	if err := n.eng.Thread(99).RunReadOnly(func(tx engine.Txn) error {
		v, err := engine.Get[int](tx, n.cells[i])
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// bump increments cell i on the primary; the returned error is the client
// acknowledgment (gated in quorum mode).
func (n *node) bump(i int) error {
	return n.eng.Thread(0).Run(func(tx engine.Txn) error {
		return engine.Update(tx, n.cells[i], func(v int) int { return v + 1 })
	})
}

// cluster wires a primary to one follower over fresh fault Links per dial,
// with a partition switch that also fails new dials.
type cluster struct {
	t    *testing.T
	pn   *node
	prim *Primary

	mu          sync.Mutex
	partitioned bool
	link        *Link // most recent link
}

func newCluster(t *testing.T, nCells int, popt PrimaryOptions) *cluster {
	t.Helper()
	c := &cluster{t: t, pn: newNode(t, nCells)}
	c.prim = NewPrimary(c.pn.eng, popt)
	t.Cleanup(c.prim.Close)
	return c
}

// dial is the follower's Dialer: a fresh Link whose B end feeds the
// primary, unless partitioned.
func (c *cluster) dial() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitioned {
		return nil, errors.New("network unreachable")
	}
	l := NewLink()
	c.link = l
	go c.prim.HandleConn(l.B())
	return l.A(), nil
}

func (c *cluster) partition() {
	c.mu.Lock()
	c.partitioned = true
	if c.link != nil {
		c.link.Partition()
	}
	c.mu.Unlock()
}

func (c *cluster) heal() {
	c.mu.Lock()
	c.partitioned = false
	if c.link != nil {
		c.link.Heal()
	}
	c.mu.Unlock()
}

// fastFollower are stream options tuned for test time, not production.
func fastFollower() FollowerOptions {
	return FollowerOptions{
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		StreamTimeout: 300 * time.Millisecond,
		Seed:          7,
	}
}

func fastPrimary() PrimaryOptions {
	return PrimaryOptions{
		Heartbeat:     30 * time.Millisecond,
		StreamTimeout: 300 * time.Millisecond,
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *cluster) waitCaughtUp(fn *node, d time.Duration) {
	c.t.Helper()
	waitFor(c.t, d, "follower catch-up", func() bool {
		return fn.eng.AppendedSeq() == c.pn.eng.AppendedSeq()
	})
}

func TestLiveTailReplication(t *testing.T) {
	c := newCluster(t, 4, fastPrimary())
	fn := newNode(t, 4)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()

	for i := 0; i < 50; i++ {
		if err := c.pn.bump(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp(fn, 5*time.Second)
	for i := 0; i < 4; i++ {
		if got, want := fn.read(t, i), c.pn.read(t, i); got != want {
			t.Errorf("cell %d: follower %d, primary %d", i, got, want)
		}
	}
	// Standby refuses local updates but serves reads (exercised above).
	if err := fn.bump(0); !errors.Is(err, durable.ErrStandby) {
		t.Errorf("standby update: err = %v, want ErrStandby", err)
	}
	st := c.prim.Stats()
	if st.Followers != 1 || st.Accepts == 0 {
		t.Errorf("primary stats: %+v, want 1 live follower", st)
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	c := newCluster(t, 2, fastPrimary())
	for i := 0; i < 30; i++ {
		if err := c.pn.bump(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	fn := newNode(t, 2)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	c.waitCaughtUp(fn, 5*time.Second)
	if got := fn.read(t, 0) + fn.read(t, 1); got != 30 {
		t.Errorf("follower total %d, want 30", got)
	}
	if s := fol.Stats(); s.Snapshots == 0 {
		t.Errorf("stats %+v: catch-up from behind must install a snapshot", s)
	}
}

func TestQuorumGate(t *testing.T) {
	popt := fastPrimary()
	popt.Quorum = 1
	popt.AckTimeout = 150 * time.Millisecond
	c := newCluster(t, 1, popt)

	// No follower: the commit journals but the ack times out.
	if err := c.pn.bump(0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("no-follower commit: err = %v, want ErrNoQuorum", err)
	}
	// The unacked commit is still durable locally and still counts in the
	// value — the gate withholds acknowledgment, not the commit.
	if got := c.pn.read(t, 0); got != 1 {
		t.Fatalf("cell after unacked commit = %d, want 1", got)
	}

	fn := newNode(t, 1)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower connect", func() bool { return fol.Stats().Connected })
	c.waitCaughtUp(fn, 5*time.Second)
	if err := c.pn.bump(0); err != nil {
		t.Fatalf("quorum commit with live follower: %v", err)
	}
	// A quorum-acked commit is already applied on the follower, by
	// definition: that is the zero-acked-loss invariant failover relies on.
	if got := fn.read(t, 0); got != 2 {
		t.Errorf("follower cell after acked commit = %d, want 2", got)
	}
}

func TestPartitionAndReconnect(t *testing.T) {
	popt := fastPrimary()
	popt.Quorum = 1
	popt.AckTimeout = 200 * time.Millisecond
	c := newCluster(t, 1, popt)
	fn := newNode(t, 1)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower connect", func() bool { return fol.Stats().Connected })

	acked := 0
	for i := 0; i < 10; i++ {
		if err := c.pn.bump(0); err != nil {
			t.Fatal(err)
		}
		acked++
	}

	c.partition()
	// Commits during the partition journal locally but fail the quorum ack.
	for i := 0; i < 3; i++ {
		if err := c.pn.bump(0); !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("partitioned commit %d: err = %v, want ErrNoQuorum", i, err)
		}
	}

	c.heal()
	waitFor(t, 10*time.Second, "reconnect", func() bool { return fol.Stats().Connected })
	c.waitCaughtUp(fn, 5*time.Second)
	if err := c.pn.bump(0); err != nil {
		t.Fatalf("post-heal commit: %v", err)
	}
	acked++

	// Zero acked loss: the follower holds at least every acked commit (it
	// also holds the journaled-but-unacked ones after catch-up — acceptable
	// in the safe direction).
	if got := fn.read(t, 0); got < acked {
		t.Errorf("follower cell = %d, want ≥ %d acked commits", got, acked)
	}
	if s := fol.Stats(); s.Reconnects == 0 {
		t.Errorf("stats %+v: partition must force a reconnect", s)
	}
}

func TestSlowFollowerResyncNeverBlocksCommits(t *testing.T) {
	popt := fastPrimary()
	popt.SendBuffer = 512 // a handful of frames
	c := newCluster(t, 2, popt)
	fn := newNode(t, 2)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower connect", func() bool { return fol.Stats().Connected })
	c.mu.Lock()
	c.link.DelayWrites(3 * time.Millisecond)
	c.mu.Unlock()

	// Burst far past the send buffer. Async mode: every commit must return
	// promptly no matter how slow the stream is.
	start := time.Now()
	for i := 0; i < 300; i++ {
		if err := c.pn.bump(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("300 commits took %v: slow follower is blocking the primary", elapsed)
	}
	waitFor(t, 10*time.Second, "resync", func() bool { return c.prim.Stats().Resyncs > 0 })

	c.mu.Lock()
	c.link.DelayWrites(0)
	c.mu.Unlock()
	c.waitCaughtUp(fn, 20*time.Second)
	if got := fn.read(t, 0) + fn.read(t, 1); got != 300 {
		t.Errorf("follower total %d, want 300", got)
	}
}

func TestTornStreamReconnects(t *testing.T) {
	c := newCluster(t, 1, fastPrimary())
	fn := newNode(t, 1)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower connect", func() bool { return fol.Stats().Connected })
	for i := 0; i < 5; i++ {
		if err := c.pn.bump(0); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp(fn, 5*time.Second)

	// Tear the stream mid-frame: the next primary write delivers 3 bytes of
	// frame header and dies.
	c.mu.Lock()
	c.link.CutAfterWrites(3)
	c.mu.Unlock()
	for i := 0; i < 20; i++ {
		if err := c.pn.bump(0); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp(fn, 10*time.Second)
	if got := fn.read(t, 0); got != 25 {
		t.Errorf("follower cell = %d, want 25", got)
	}
	if s := fol.Stats(); s.Reconnects == 0 {
		t.Errorf("stats %+v: torn stream must force a reconnect", s)
	}
}

func TestPromoteDuringCatchup(t *testing.T) {
	c := newCluster(t, 2, fastPrimary())
	for i := 0; i < 200; i++ {
		if err := c.pn.bump(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	fn := newNode(t, 2)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	// Promote immediately: catch-up may be anywhere — unconnected, mid-
	// snapshot, mid-tail. Promote must quiesce cleanly from any of them.
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := fol.Promote(); !errors.Is(err, ErrPromoted) {
		t.Errorf("second promote: err = %v, want ErrPromoted", err)
	}

	// The promoted node serves update transactions, numbered densely after
	// whatever it applied.
	before := fn.eng.AppendedSeq()
	for i := 0; i < 10; i++ {
		if err := fn.bump(0); err != nil {
			t.Fatalf("post-promote commit %d: %v", i, err)
		}
	}
	if got := fn.eng.AppendedSeq(); got != before+10 {
		t.Errorf("promoted seq advanced %d → %d, want dense +10", before, got)
	}
	if !fol.Stats().Promoted {
		t.Error("stats must report promoted")
	}
}

// TestPromotedFollowerSurvivesRestart: the sealed log of a promoted
// follower recovers into a fresh engine with the same state — machine-death
// failover followed by a process restart.
func TestPromotedFollowerSurvivesRestart(t *testing.T) {
	c := newCluster(t, 2, fastPrimary())
	fdir := t.TempDir()
	feng, err := durable.Wrap(engine.MustNew("norec", engine.Options{}), durable.Options{
		Dir: fdir, Fsync: durable.FsyncNever, SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fn := &node{eng: feng}
	for i := 0; i < 2; i++ {
		fn.cells = append(fn.cells, feng.NewCell(0))
	}
	fol := NewFollower(feng, c.dial, fastFollower())
	for i := 0; i < 40; i++ {
		if err := c.pn.bump(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp(fn, 5*time.Second)
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := fn.bump(0); err != nil {
		t.Fatal(err)
	}
	wantSeq := feng.AppendedSeq()
	if err := feng.WALClose(); err != nil {
		t.Fatal(err)
	}

	e2, err := durable.Wrap(engine.MustNew("norec", engine.Options{}), durable.Options{
		Dir: fdir, Fsync: durable.FsyncNever, SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.WALClose()
	n2 := &node{eng: e2}
	for i := 0; i < 2; i++ {
		n2.cells = append(n2.cells, e2.NewCell(0))
	}
	if got := e2.DurabilityInfo().RecoveredSeq; got != wantSeq {
		t.Errorf("recovered seq %d, want %d", got, wantSeq)
	}
	if got := n2.read(t, 0) + n2.read(t, 1); got != 41 {
		t.Errorf("recovered total %d, want 41", got)
	}
}

// TestWireMalformed: hand-rolled malformed messages are rejected, not
// misparsed.
func TestWireMalformed(t *testing.T) {
	if _, err := parseHello([]byte{msgAck, 1, 1}); err == nil {
		t.Error("ack payload accepted as hello")
	}
	if _, err := parseHello([]byte{msgHello, 0x80}); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := parseHello(helloPayload(99, 5)); err == nil {
		t.Error("future protocol version accepted")
	}
	if _, err := parseSeqPayload([]byte{msgAck}); err == nil {
		t.Error("bare ack accepted")
	}
	if _, err := parseSeqPayload([]byte{msgAck, 1, 2}); err == nil {
		t.Error("trailing ack bytes accepted")
	}
	if _, err := parseSeqPayload([]byte{msgAck, 0x80, 0}); err == nil {
		t.Error("zero-padded ack accepted")
	}
	if _, err := parseHello(helloPayload(0, 5)); err == nil {
		t.Error("protocol version 0 accepted")
	}
	// Round trips.
	last, err := parseHello(helloPayload(protoVersion, 42))
	if err != nil || last != 42 {
		t.Errorf("hello round trip: %d, %v", last, err)
	}
	seq, err := parseSeqPayload(payloadOf(seqFrame(msgAck, 7)))
	if err != nil || seq != 7 {
		t.Errorf("ack round trip: %d, %v", seq, err)
	}
}

// helloPayload builds a raw hello payload with an arbitrary version.
func helloPayload(ver, last uint64) []byte {
	p := []byte{msgHello}
	p = appendUvarint(p, ver)
	p = appendUvarint(p, last)
	return p
}

func payloadOf(frame []byte) []byte { return frame[frameHeaderLen:] }

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// TestFollowerAheadRefused: a follower whose watermark exceeds the
// primary's (divergent history) is dropped at hello, not fed records.
func TestFollowerAheadRefused(t *testing.T) {
	c := newCluster(t, 1, fastPrimary())
	if err := c.pn.bump(0); err != nil {
		t.Fatal(err)
	}
	l := NewLink()
	go c.prim.HandleConn(l.B())
	conn := l.A()
	defer conn.Close()
	if _, err := conn.Write(helloFrame(c.pn.eng.AppendedSeq() + 100)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := durable.ReadFrame(conn); err == nil {
		t.Error("ahead follower got a frame; want the stream dropped")
	}
	waitFor(t, 5*time.Second, "stream drop", func() bool { return c.prim.Stats().Followers == 0 })
}
