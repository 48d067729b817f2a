package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// ErrNoQuorum reports a commit that journaled locally but was not
// acknowledged by the required follower count within the ack timeout. The
// commit is durable on the primary — only the client acknowledgment is
// withheld, so callers must not count the transaction as replicated.
var ErrNoQuorum = errors.New("replica: quorum not reached")

// ErrClosed reports an operation on a closed Primary.
var ErrClosed = errors.New("replica: primary closed")

// PrimaryOptions tune the shipping side. The zero value is usable.
type PrimaryOptions struct {
	// Quorum is the follower-ack count that gates client acknowledgments
	// (sync replication). 0 is asynchronous: commits ack immediately and
	// followers trail best-effort.
	Quorum int
	// AckTimeout bounds the quorum wait per commit (default 5s).
	AckTimeout time.Duration
	// SendBuffer bounds each follower's queued frame bytes; overflowing it
	// marks the follower for drop-and-resync from a fresh snapshot instead
	// of ever blocking commits (default 4 MiB).
	SendBuffer int64
	// Heartbeat is the idle-stream heartbeat interval (default 250ms).
	Heartbeat time.Duration
	// StreamTimeout is the per-stream read and write deadline; a stream
	// silent for this long is dropped (default 4×Heartbeat).
	StreamTimeout time.Duration
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.SendBuffer <= 0 {
		o.SendBuffer = 4 << 20
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 4 * o.Heartbeat
	}
	return o
}

// Stats is the primary's replication telemetry snapshot.
type Stats struct {
	// Followers is the live stream count.
	Followers int
	// AppendedSeq is the primary's WAL high-water mark.
	AppendedSeq uint64
	// MinAckedSeq is the laggiest live follower's acknowledged seq (0 with
	// no followers).
	MinAckedSeq uint64
	// LagSeqs is AppendedSeq − MinAckedSeq over live followers (0 without).
	LagSeqs uint64
	// LagBytes is the frame bytes currently queued across follower send
	// buffers.
	LagBytes int64
	// Resyncs counts slow-follower buffer drops that forced a fresh
	// snapshot down an already-open stream.
	Resyncs uint64
	// Accepts counts streams that completed a hello; Disconnects counts
	// streams that ended. accepts − disconnects = Followers.
	Accepts, Disconnects uint64
}

// Primary taps the durable engine's WAL appends and ships every commit
// frame to its registered followers. Create with NewPrimary, feed it
// connections via Serve (a listener accept loop) or HandleConn (direct, for
// in-process fault injection), and Close to detach from the engine.
type Primary struct {
	eng *durable.Engine
	opt PrimaryOptions

	mu        sync.Mutex // followers, closed, and the ack condition
	cond      *sync.Cond
	followers map[*stream]struct{}
	closed    bool

	resyncs     atomic.Uint64
	accepts     atomic.Uint64
	disconnects atomic.Uint64
}

// NewPrimary attaches a shipper to eng: the WAL tap starts feeding follower
// queues immediately, and with opt.Quorum > 0 the engine's commit gate
// starts holding client acks for follower acknowledgment.
func NewPrimary(eng *durable.Engine, opt PrimaryOptions) *Primary {
	p := &Primary{
		eng:       eng,
		opt:       opt.withDefaults(),
		followers: map[*stream]struct{}{},
	}
	p.cond = sync.NewCond(&p.mu)
	eng.TapCommits(p.tap)
	if p.opt.Quorum > 0 {
		eng.SetCommitGate(p.gate)
		// The gate re-checks its deadline only when woken; a periodic
		// broadcast bounds the staleness when no acks arrive at all.
		go p.gateTicker()
	}
	return p
}

// tap runs under the log mutex on every append: copy the frame, hand it to
// each follower queue, never block (enqueue drops-and-marks on overflow).
func (p *Primary) tap(seq uint64, fr []byte) {
	p.mu.Lock()
	if len(p.followers) == 0 || p.closed {
		p.mu.Unlock()
		return
	}
	cp := append(make([]byte, 0, len(fr)), fr...) // one read-only copy, shared
	for s := range p.followers {
		s.enqueue(seq, cp)
	}
	p.mu.Unlock()
}

// gate is the engine's commit gate in quorum mode: block the client ack
// until Quorum followers acknowledged seq, bounded by AckTimeout.
func (p *Primary) gate(seq uint64) error {
	deadline := time.Now().Add(p.opt.AckTimeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		n := 0
		for s := range p.followers {
			if s.acked.Load() >= seq {
				n++
			}
		}
		if n >= p.opt.Quorum {
			return nil
		}
		if p.closed {
			return fmt.Errorf("%w: seq %d unconfirmed", ErrClosed, seq)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: seq %d acked by %d of %d followers within %v",
				ErrNoQuorum, seq, n, p.opt.Quorum, p.opt.AckTimeout)
		}
		p.cond.Wait()
	}
}

func (p *Primary) gateTicker() {
	t := time.NewTicker(p.opt.AckTimeout / 4)
	defer t.Stop()
	for range t.C {
		p.mu.Lock()
		closed := p.closed
		p.cond.Broadcast()
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// Serve accepts follower connections until the listener closes.
func (p *Primary) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go p.HandleConn(conn)
	}
}

// HandleConn runs one follower stream to completion: hello, catch-up
// (snapshot when the follower is behind), then the live tail. It returns
// when the stream dies; the follower reconnects on its own schedule.
func (p *Primary) HandleConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(p.opt.StreamTimeout))
	_, payload, err := durable.ReadFrame(conn)
	if err != nil {
		return
	}
	lastApplied, err := parseHello(payload)
	if err != nil {
		return
	}

	s := &stream{p: p, conn: conn}
	s.qcond = sync.NewCond(&s.qmu)
	s.acked.Store(lastApplied)

	// Register before deciding catch-up: from this point the tap queues
	// every new commit, so a snapshot captured later plus the queue (minus
	// frames its watermark covers) misses nothing.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.followers[s] = struct{}{}
	p.mu.Unlock()
	p.accepts.Add(1)

	appended := p.eng.AppendedSeq()
	switch {
	case lastApplied == appended:
		// Tail-only reconnect: the follower is exactly current.
	case lastApplied < appended:
		s.markResync(false)
	default:
		// A follower ahead of its primary is divergent history (it was
		// promoted, or speaks for a different log); refuse the stream
		// rather than feed it records it cannot apply.
		p.drop(s)
		return
	}

	done := make(chan struct{})
	go func() {
		s.reader()
		close(done)
	}()
	go s.heartbeater(done)
	s.writer()
	<-done
	p.drop(s)
}

// drop removes a stream and wakes the gate (a dead follower can no longer
// ack anything).
func (p *Primary) drop(s *stream) {
	s.qmu.Lock()
	wasDead := s.dead
	s.dead = true
	s.queue, s.qbytes = nil, 0
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.conn.Close()
	p.mu.Lock()
	delete(p.followers, s)
	p.cond.Broadcast()
	p.mu.Unlock()
	if !wasDead {
		p.disconnects.Add(1)
	}
}

// Stats snapshots the primary's replication telemetry.
func (p *Primary) Stats() Stats {
	st := Stats{
		AppendedSeq: p.eng.AppendedSeq(),
		Resyncs:     p.resyncs.Load(),
		Accepts:     p.accepts.Load(),
		Disconnects: p.disconnects.Load(),
	}
	p.mu.Lock()
	st.Followers = len(p.followers)
	for s := range p.followers {
		if a := s.acked.Load(); st.MinAckedSeq == 0 || a < st.MinAckedSeq {
			st.MinAckedSeq = a
		}
		s.qmu.Lock()
		st.LagBytes += s.qbytes
		s.qmu.Unlock()
	}
	p.mu.Unlock()
	if st.Followers > 0 && st.AppendedSeq > st.MinAckedSeq {
		st.LagSeqs = st.AppendedSeq - st.MinAckedSeq
	}
	return st
}

// Close detaches the shipper from the engine (tap and gate cleared) and
// drops every stream. The engine itself keeps running unreplicated.
func (p *Primary) Close() {
	p.eng.TapCommits(nil)
	p.eng.SetCommitGate(nil)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	streams := make([]*stream, 0, len(p.followers))
	for s := range p.followers {
		streams = append(streams, s)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, s := range streams {
		p.drop(s)
	}
}

// qitem is one queued commit frame with its seq (so a resync snapshot's
// watermark can drop the covered prefix).
type qitem struct {
	seq uint64
	b   []byte
}

// stream is one follower connection on the primary side: a bounded queue
// fed by the tap, a writer goroutine shipping snapshot + tail, a reader
// consuming acks, and a heartbeater keeping idle streams alive.
type stream struct {
	p    *Primary
	conn net.Conn

	qmu      sync.Mutex
	qcond    *sync.Cond
	queue    []qitem
	qbytes   int64
	needSnap bool
	dead     bool

	wmu sync.Mutex // serializes conn writes (writer vs heartbeater)

	acked atomic.Uint64
}

// enqueue runs inside the tap (under the log mutex): append the frame, or —
// on a full buffer — drop everything and mark the stream for a fresh
// snapshot. Never blocks, so a slow follower can never stall a commit.
func (s *stream) enqueue(seq uint64, fr []byte) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.dead {
		return
	}
	if s.qbytes+int64(len(fr)) > s.p.opt.SendBuffer {
		s.queue, s.qbytes = s.queue[:0], 0
		if !s.needSnap {
			s.needSnap = true
			s.p.resyncs.Add(1)
		}
	}
	s.queue = append(s.queue, qitem{seq: seq, b: fr})
	s.qbytes += int64(len(fr))
	s.qcond.Signal()
}

// markResync queues a snapshot send ahead of the tail.
func (s *stream) markResync(countIt bool) {
	s.qmu.Lock()
	if !s.needSnap {
		s.needSnap = true
		if countIt {
			s.p.resyncs.Add(1)
		}
	}
	s.qcond.Signal()
	s.qmu.Unlock()
}

func (s *stream) write(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.p.opt.StreamTimeout))
	_, err := s.conn.Write(b)
	return err
}

// writer ships the stream: snapshot when marked, then queued tail frames in
// arrival order, coalescing each wakeup's batch into one conn write (the
// group-commit-aligned flush: frames of one fsync batch leave together).
func (s *stream) writer() {
	var buf []byte
	for {
		s.qmu.Lock()
		for !s.dead && !s.needSnap && len(s.queue) == 0 {
			s.qcond.Wait()
		}
		if s.dead {
			s.qmu.Unlock()
			return
		}
		if s.needSnap {
			s.needSnap = false
			s.qmu.Unlock()
			watermark, fr, err := s.p.eng.SnapshotFrame()
			if err != nil || s.write(fr) != nil {
				s.fail()
				return
			}
			// The snapshot covers every commit ≤ watermark: drop the
			// queued prefix it superseded.
			s.qmu.Lock()
			kept := s.queue[:0]
			var bytes int64
			for _, it := range s.queue {
				if it.seq > watermark {
					kept = append(kept, it)
					bytes += int64(len(it.b))
				}
			}
			s.queue, s.qbytes = kept, bytes
			s.qmu.Unlock()
			continue
		}
		batch := s.queue
		s.queue, s.qbytes = nil, 0
		s.qmu.Unlock()
		buf = buf[:0]
		for _, it := range batch {
			buf = append(buf, it.b...)
		}
		if s.write(buf) != nil {
			s.fail()
			return
		}
	}
}

// reader consumes follower acks until the stream dies.
func (s *stream) reader() {
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(s.p.opt.StreamTimeout))
		_, payload, err := durable.ReadFrame(s.conn)
		if err != nil {
			s.fail()
			return
		}
		if len(payload) == 0 || payload[0] != msgAck {
			s.fail()
			return
		}
		seq, err := parseSeqPayload(payload)
		if err != nil {
			s.fail()
			return
		}
		if seq > s.acked.Load() {
			s.acked.Store(seq)
			s.p.mu.Lock()
			s.p.cond.Broadcast()
			s.p.mu.Unlock()
		}
	}
}

// heartbeater keeps an idle stream alive (and carries the primary's
// high-water mark, which the follower's lag view can use).
func (s *stream) heartbeater(done <-chan struct{}) {
	t := time.NewTicker(s.p.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if s.write(seqFrame(msgHeartbeat, s.p.eng.AppendedSeq())) != nil {
				s.fail()
				return
			}
		}
	}
}

// fail marks the stream dead and closes the conn, unblocking its peers.
func (s *stream) fail() {
	s.qmu.Lock()
	s.dead = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.conn.Close()
}
