// The replication fault matrix: every scenario runs primary and follower in
// one process over fault-injectable Link pairs, so partition, slow-follower,
// torn-stream and promote-during-catchup are deterministic and race-clean.
package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
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

// walRecords reads every log segment in dir with durable.ReadFrame, after
// its magic, up to its end or the zero tail of its preallocation (which
// ReadFrame reads as a frame with an empty payload), and returns each commit
// record by seq, and the watermark of the snapshot file (0 if none).
func walRecords(t *testing.T, dir string) (records map[uint64][]byte, snapSeq uint64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	records = make(map[uint64][]byte)
	for _, path := range segs {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(img, []byte("DWAL0001")) {
			t.Fatalf("%s: no segment magic", path)
		}
		r := bytes.NewReader(img[8:])
		for {
			_, payload, err := durable.ReadFrame(r)
			if err == io.EOF || err == nil && len(payload) == 0 {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			seq, err := parseRecordSeq(payload)
			if err != nil || payload[0] != msgCommit || records[seq] != nil {
				t.Fatalf("%s: record %x is not one new commit (%v)", path, payload, err)
			}
			records[seq] = payload
		}
	}
	img, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if errors.Is(err, os.ErrNotExist) {
		return records, 0
	}
	if err != nil || !bytes.HasPrefix(img, []byte("DSNAP001")) {
		t.Fatalf("snapshot in %s: %v", dir, err)
	}
	_, payload, err := durable.ReadFrame(bytes.NewReader(img[8:]))
	if err == nil {
		snapSeq, err = parseRecordSeq(payload)
	}
	if err != nil {
		t.Fatalf("snapshot in %s: %v", dir, err)
	}
	return records, snapSeq
}

// sameRecords is the byte-identity oracle: with both logs flushed, the
// follower holds every seq from its last snapshot install (or the start)
// up to its watermark, and each of those commit records equals the
// primary's byte for byte. It is sound because the follower journals the
// frames it received and a record has one encoding. Call it once the
// follower has stopped applying and before it commits on its own.
func sameRecords(t *testing.T, primary, follower *durable.Engine) {
	t.Helper()
	for _, e := range []*durable.Engine{primary, follower} {
		if err := e.WALSync(); err != nil {
			t.Fatal(err)
		}
	}
	prim, _ := walRecords(t, primary.DurabilityInfo().WALDir)
	fol, snapSeq := walRecords(t, follower.DurabilityInfo().WALDir)
	applied := follower.AppendedSeq()
	for seq := snapSeq + 1; seq <= applied; seq++ {
		if got, want := fol[seq], prim[seq]; got == nil || !bytes.Equal(got, want) {
			t.Errorf("commit %d: follower journaled %x, primary %x", seq, got, want)
		}
	}
}

func TestLiveTailReplication(t *testing.T) {
	c := newCluster(t, 4, fastPrimary())
	fn := newNode(t, 4)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	// Commits made before the primary registers the stream would reach the
	// follower as a catch-up snapshot, not as the tail this test ships.
	waitFor(t, 5*time.Second, "stream registered", func() bool { return c.prim.Stats().Followers == 1 })

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
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
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
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
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
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
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
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
}

func TestSlowFollowerResyncNeverBlocksCommits(t *testing.T) {
	popt := fastPrimary()
	popt.SendBuffer = 512 // a handful of frames
	c := newCluster(t, 2, popt)
	fn := newNode(t, 2)
	fol := NewFollower(fn.eng, c.dial, fastFollower())
	defer fol.Close()
	// The follower counts itself connected once its dial returns, before the
	// primary has read its hello and registered the stream; a burst before
	// that would reach the stream only as a catch-up snapshot.
	waitFor(t, 5*time.Second, "follower connect", func() bool {
		return fol.Stats().Connected && c.prim.Stats().Followers == 1
	})
	c.mu.Lock()
	release := c.link.Stall()
	c.mu.Unlock()
	defer release()

	// Burst far past the send buffer while the stream's writes are blocked:
	// the writer holds at most one batch in its blocked write, so the queue
	// overflows at any commit rate. Async mode: every commit must return
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

	release()
	c.waitCaughtUp(fn, 20*time.Second)
	if got := fn.read(t, 0) + fn.read(t, 1); got != 300 {
		t.Errorf("follower total %d, want 300", got)
	}
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
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
	// The commits above may all arrive in the resync snapshot; these ride
	// the tail of the new stream.
	waitFor(t, 5*time.Second, "stream re-registered", func() bool { return c.prim.Stats().Followers == 1 })
	for i := 0; i < 5; i++ {
		if err := c.pn.bump(0); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp(fn, 5*time.Second)
	if got := fn.read(t, 0); got != 30 {
		t.Errorf("follower cell = %d, want 30", got)
	}
	if s := fol.Stats(); s.Reconnects == 0 {
		t.Errorf("stats %+v: torn stream must force a reconnect", s)
	}
	fol.Close()
	sameRecords(t, c.pn.eng, fn.eng)
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
	sameRecords(t, c.pn.eng, fn.eng)

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
// failover followed by a process restart. The follower gets its state as
// the live tail, or as a catch-up snapshot followed by the tail, so recovery
// reads a log the follower journaled itself and a snapshot file it installed
// from the primary's frame.
func TestPromotedFollowerSurvivesRestart(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		name := "tail"
		if snapshot {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) { promotedFollowerSurvivesRestart(t, snapshot) })
	}
}

func promotedFollowerSurvivesRestart(t *testing.T, snapshot bool) {
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
	commits := 0
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.pn.bump(commits % 2); err != nil {
				t.Fatal(err)
			}
			commits++
		}
	}
	if snapshot {
		// Commits made before the follower connects reach it as a catch-up
		// snapshot.
		commit(30)
	}
	fol := NewFollower(feng, c.dial, fastFollower())
	if snapshot {
		c.waitCaughtUp(fn, 5*time.Second)
		if s := fol.Stats(); s.Snapshots == 0 {
			t.Fatalf("stats %+v: catch-up from behind must install a snapshot", s)
		}
	}
	waitFor(t, 5*time.Second, "stream registered", func() bool { return c.prim.Stats().Followers == 1 })
	commit(40)
	c.waitCaughtUp(fn, 5*time.Second)
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, c.pn.eng, feng)
	if _, snapSeq := walRecords(t, fdir); snapshot != (snapSeq > 0) {
		t.Fatalf("follower snapshot file at seq %d, want one: %v", snapSeq, snapshot)
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
	if got, want := n2.read(t, 0)+n2.read(t, 1), commits+1; got != want {
		t.Errorf("recovered total %d, want %d", got, want)
	}
}

// TestWireGolden pins the control frames' bytes: hello, ack and heartbeat,
// framed by the durable framer, are the bytes the protocol has always sent.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello", helloFrame(300), "040000000ef8a8326801ac02"},
		{"ack", seqFrame(msgAck, 7), "02000000badd5ba36107"},
		{"heartbeat", seqFrame(msgHeartbeat, 1<<20), "04000000cf22011c62808040"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s frame %s, want %s", c.name, got, c.want)
		}
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

func payloadOf(frame []byte) []byte { return frame[durable.FrameHeaderLen:] }

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

// TestFollowerDropsPaddedRecord: a record with a zero-padded varint is not
// its one encoding but a malformed one. A follower sent it drops the stream
// without acking and redials, and its log is left as it was: a padded seq is
// refused by the follower's own seq parse, a padded value by the decoder
// behind ApplyReplicated (internal/durable refuses every padded field). The
// same record unpadded, a commit at seq 1 of the int 300 to cell 0, is
// applied and acked.
func TestFollowerDropsPaddedRecord(t *testing.T) {
	for _, c := range []struct{ name, rec string }{
		{"unpadded", "4301010069d804"},
		{"padded seq", "438100010069d804"},
		{"padded int value", "4301010069d88400"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec, _ := hex.DecodeString(c.rec)
			fn := newNode(t, 1)
			conns := make(chan net.Conn, 16)
			fol := NewFollower(fn.eng, func() (net.Conn, error) {
				l := NewLink()
				conns <- l.B()
				return l.A(), nil
			}, fastFollower())
			defer fol.Close()

			// The test plays the primary: read the hello, send the record.
			conn := <-conns
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, payload, err := durable.ReadFrame(conn); err != nil || payload[0] != msgHello {
				t.Fatalf("hello: %x, %v", payload, err)
			}
			if _, err := conn.Write(durable.Frame(append(make([]byte, durable.FrameHeaderLen), rec...))); err != nil {
				t.Fatal(err)
			}
			_, payload, err := durable.ReadFrame(conn)
			if c.name == "unpadded" {
				if seq, perr := parseSeqPayload(payload); err != nil || payload[0] != msgAck || perr != nil || seq != 1 {
					t.Fatalf("unpadded record: follower answered %x, %v; want an ack of seq 1", payload, err)
				}
				return
			}
			if err != io.EOF {
				t.Fatalf("padded record: follower answered %x, %v; want the stream closed", payload, err)
			}
			select {
			case <-conns: // the follower redials
			case <-time.After(5 * time.Second):
				t.Fatal("follower did not redial after dropping the stream")
			}
			fol.Close()
			if err := fn.eng.WALSync(); err != nil {
				t.Fatal(err)
			}
			records, snapSeq := walRecords(t, fn.eng.DurabilityInfo().WALDir)
			if fn.eng.AppendedSeq() != 0 || len(records) != 0 || snapSeq != 0 {
				t.Errorf("padded record moved the follower to seq %d (%d records, snapshot at %d)", fn.eng.AppendedSeq(), len(records), snapSeq)
			}
		})
	}
}
