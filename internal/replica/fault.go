// Deterministic fault injection for replication streams: Link is an
// in-process conn pair (net.Pipe under the hood, so deadlines work) whose
// ends can drop traffic silently (partition — peers discover it only
// through deadlines), stall writes (a follower that stops reading —
// backpressure into the primary's send buffer), cut hard (process death),
// or break mid-frame after a byte budget (torn stream). The fault matrix
// tests and the stmserve failover tests drive these instead of real
// sockets, so every scenario runs single-process and race-clean.
package replica

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrLinkCut is the write error after a Link fault severs the stream.
var ErrLinkCut = errors.New("replica: fault link cut")

// Link is a connected in-process conn pair with fault controls. A returns
// the dialing side's end (the follower, by convention), B the accepting
// side's (the primary).
type Link struct {
	a, b *faultEnd
}

// NewLink returns a fresh healthy pair.
func NewLink() *Link {
	c1, c2 := net.Pipe()
	l := &Link{a: &faultEnd{conn: c1, limit: -1}, b: &faultEnd{conn: c2, limit: -1}}
	l.a.peer, l.b.peer = l.b, l.a
	return l
}

// A is the dialer-side end, B the acceptor-side end.
func (l *Link) A() net.Conn { return l.a }
func (l *Link) B() net.Conn { return l.b }

// Partition silently drops all traffic in both directions: writes claim
// success, nothing arrives, and both ends discover the break only when
// their read deadlines fire — the classic network partition.
func (l *Link) Partition() {
	l.a.setDrop(true)
	l.b.setDrop(true)
}

// Heal ends a Partition. Frames swallowed while partitioned stay lost (the
// stream is torn from each end's perspective and must reconnect).
func (l *Link) Heal() {
	l.a.setDrop(false)
	l.b.setDrop(false)
}

// Cut severs the link hard: both ends' I/O fails immediately, like a peer
// process dying.
func (l *Link) Cut() {
	l.a.conn.Close()
	l.b.conn.Close()
}

// CutAfterWrites severs the link after the B (primary) end writes n more
// bytes: the nth write delivers a partial payload and then the link dies,
// tearing a frame mid-stream.
func (l *Link) CutAfterWrites(n int64) { l.b.setLimit(n) }

// Stall blocks every B (primary) end write until release is called — a
// follower that stops reading, without touching the follower itself.
// However slowly commits arrive, the primary's send buffer fills behind the
// blocked write. release may be called more than once.
func (l *Link) Stall() (release func()) {
	gate := make(chan struct{})
	l.b.setStall(gate)
	return sync.OnceFunc(func() {
		l.b.setStall(nil)
		close(gate)
	})
}

// faultEnd wraps one pipe end with the fault switchboard.
type faultEnd struct {
	conn net.Conn
	peer *faultEnd

	mu    sync.Mutex
	drop  bool
	stall chan struct{} // non-nil: writes wait until it is closed
	limit int64         // bytes this end may still write; -1 = unlimited
}

func (e *faultEnd) setDrop(on bool) {
	e.mu.Lock()
	e.drop = on
	e.mu.Unlock()
}

func (e *faultEnd) setStall(gate chan struct{}) {
	e.mu.Lock()
	e.stall = gate
	e.mu.Unlock()
}

func (e *faultEnd) setLimit(n int64) {
	e.mu.Lock()
	e.limit = n
	e.mu.Unlock()
}

func (e *faultEnd) Write(b []byte) (int, error) {
	e.mu.Lock()
	drop, stall, limit := e.drop, e.stall, e.limit
	e.mu.Unlock()
	if stall != nil {
		<-stall
	}
	if drop {
		return len(b), nil // swallowed: the partition eats it
	}
	if limit >= 0 {
		if int64(len(b)) >= limit {
			// Deliver the allowed prefix, then kill the pipe: the reader
			// sees a torn frame, not a clean close.
			if limit > 0 {
				_, _ = e.conn.Write(b[:limit])
			}
			e.conn.Close()
			e.peer.conn.Close()
			return int(limit), ErrLinkCut
		}
		e.mu.Lock()
		e.limit -= int64(len(b))
		e.mu.Unlock()
	}
	return e.conn.Write(b)
}

func (e *faultEnd) Read(b []byte) (int, error) {
	return e.conn.Read(b)
}

func (e *faultEnd) Close() error                       { return e.conn.Close() }
func (e *faultEnd) LocalAddr() net.Addr                { return e.conn.LocalAddr() }
func (e *faultEnd) RemoteAddr() net.Addr               { return e.conn.RemoteAddr() }
func (e *faultEnd) SetDeadline(t time.Time) error      { return e.conn.SetDeadline(t) }
func (e *faultEnd) SetReadDeadline(t time.Time) error  { return e.conn.SetReadDeadline(t) }
func (e *faultEnd) SetWriteDeadline(t time.Time) error { return e.conn.SetWriteDeadline(t) }
