package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// ErrPromoted reports an operation on a follower that already promoted.
var ErrPromoted = errors.New("replica: follower already promoted")

// FollowerOptions tune the replay side. The zero value is usable.
type FollowerOptions struct {
	// BackoffMin..BackoffMax bound the reconnect backoff: each failed dial
	// doubles the wait (capped at max) and adds up to 50% jitter; a healthy
	// stream resets it (defaults 50ms..2s).
	BackoffMin, BackoffMax time.Duration
	// StreamTimeout is the read deadline per frame; it must exceed the
	// primary's heartbeat interval or healthy idle streams flap (default
	// 2s).
	StreamTimeout time.Duration
	// Seed seeds the jitter source (0 = 1); fixed seeds keep fault-matrix
	// runs deterministic.
	Seed int64
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// FollowerStats is the follower's replication telemetry snapshot.
type FollowerStats struct {
	// AppliedSeq is the applied-seq watermark (the follower's own WAL
	// high-water mark: every applied record is journaled, as it arrived, at
	// its original seq).
	AppliedSeq uint64
	// Connected reports a currently live stream to the primary.
	Connected bool
	// Reconnects counts dial attempts after the first connection was
	// established — the flap/backoff counter.
	Reconnects uint64
	// Snapshots counts snapshot installs (initial catch-up and primary
	// resyncs alike).
	Snapshots uint64
	// Promoted reports the follower was sealed and promoted to primary.
	Promoted bool
}

// Follower puts eng in standby and replays a primary's redo stream into it,
// reconnecting with capped exponential backoff + jitter whenever the stream
// dies. Promote seals the log and flips the engine back to serving primary.
type Follower struct {
	eng  *durable.Engine
	dial Dialer
	opt  FollowerOptions

	mu       sync.Mutex
	conn     net.Conn // live stream, for interrupting a blocked read
	promoted bool
	closed   bool

	stop     chan struct{} // closed on Close/Promote: cuts backoff sleeps short
	stopOnce sync.Once

	connected  atomic.Bool
	everDialed atomic.Bool
	reconnects atomic.Uint64
	snapshots  atomic.Uint64
	done       chan struct{} // run loop exited; applies quiesced
}

// NewFollower switches eng into standby (local update transactions refuse
// with durable.ErrStandby; reads serve normally) and starts the replication
// loop against dial.
func NewFollower(eng *durable.Engine, dial Dialer, opt FollowerOptions) *Follower {
	eng.SetStandby(true)
	f := &Follower{
		eng: eng, dial: dial, opt: opt.withDefaults(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go f.run()
	return f
}

// stopping reports Close or Promote was requested.
func (f *Follower) stopping() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed || f.promoted
}

// run is the reconnect loop: dial, stream until it dies, back off, repeat.
func (f *Follower) run() {
	defer close(f.done)
	rng := rand.New(rand.NewSource(f.opt.Seed))
	backoff := f.opt.BackoffMin
	for {
		if f.stopping() {
			return
		}
		conn, err := f.dial()
		if err == nil {
			if f.everDialed.Swap(true) {
				f.reconnects.Add(1)
			}
			err = f.stream(conn)
			conn.Close()
			if err == nil {
				// A healthy stream ended only because we are stopping.
				return
			}
			backoff = f.opt.BackoffMin // the dial worked: reset the ladder
		}
		if f.stopping() {
			return
		}
		// Capped exponential backoff with up to 50% additive jitter, so a
		// follower herd does not re-dial in lockstep.
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		if backoff *= 2; backoff > f.opt.BackoffMax {
			backoff = f.opt.BackoffMax
		}
		select {
		case <-time.After(sleep):
		case <-f.stop:
			return
		}
	}
}

// stream runs one connection: hello with the applied watermark, then apply
// every commit and snapshot the primary sends, acking each. A nil return
// means the loop should stop; any error means reconnect.
func (f *Follower) stream(conn net.Conn) error {
	f.mu.Lock()
	if f.closed || f.promoted {
		f.mu.Unlock()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	f.connected.Store(true)
	defer func() {
		f.connected.Store(false)
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	if err := f.send(conn, helloFrame(f.eng.AppendedSeq())); err != nil {
		return err
	}
	for {
		if f.stopping() {
			return nil
		}
		_ = conn.SetReadDeadline(time.Now().Add(f.opt.StreamTimeout))
		frame, payload, err := durable.ReadFrame(conn)
		if err != nil {
			return err // torn frame, deadline, or cut: the reconnect signal
		}
		if len(payload) == 0 {
			return errors.New("replica: empty message")
		}
		switch payload[0] {
		case msgCommit, msgSnapshot:
			seq, err := parseRecordSeq(payload)
			if err != nil {
				return err
			}
			if payload[0] == msgSnapshot {
				// Counted before the install publishes the new watermark:
				// whoever sees AppliedSeq jump to seq sees the snapshot that
				// moved it.
				f.snapshots.Add(1)
			} else if seq <= f.eng.AppendedSeq() {
				continue // already applied (snapshot/tail overlap)
			}
			// A commit out of order (a stream gap) fails, and reconnecting
			// makes the primary resync us from a snapshot; anything else —
			// malformed record, unknown cell, wedged log — also surfaces as
			// a stream death and retries, the best a replica can do. The
			// ack is the applied watermark: seq itself after a commit.
			if seq > f.eng.AppendedSeq() {
				if err := f.eng.ApplyReplicated(frame); err != nil {
					return err
				}
			}
			if err := f.send(conn, seqFrame(msgAck, f.eng.AppendedSeq())); err != nil {
				return err
			}
		case msgHeartbeat:
			if _, err := parseSeqPayload(payload); err != nil {
				return err
			}
			// Echo the watermark so the primary's read deadline stays fed
			// and its lag view stays fresh.
			if err := f.send(conn, seqFrame(msgAck, f.eng.AppendedSeq())); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replica: unexpected message %q from primary", payload[0])
		}
	}
}

func (f *Follower) send(conn net.Conn, b []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(f.opt.StreamTimeout))
	_, err := conn.Write(b)
	return err
}

// Promote seals the follower and brings it up as a serving primary: the
// replication loop stops (in-flight applies quiesce), the log syncs to
// stable storage, and standby lifts so local update transactions are
// accepted — numbered densely after the last applied seq, since applies
// advanced the engine's ticket cell. Not reversible; a promoted node never
// rejoins as a follower (re-Wrap its WAL dir into a fresh engine for that).
func (f *Follower) Promote() error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return ErrPromoted
	}
	if f.closed {
		f.mu.Unlock()
		return errors.New("replica: follower closed")
	}
	f.promoted = true
	conn := f.conn
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stop) })
	if conn != nil {
		conn.Close() // interrupt a blocked read
	}
	<-f.done // applies quiesced: the loop runs them all on one goroutine
	if err := f.eng.WALSync(); err != nil {
		return fmt.Errorf("replica: sealing follower log: %w", err)
	}
	f.eng.SetStandby(false)
	return nil
}

// Close stops the replication loop, leaving the engine in standby. A closed
// follower cannot be promoted. Idempotent.
func (f *Follower) Close() {
	f.mu.Lock()
	if f.closed || f.promoted {
		f.mu.Unlock()
		return
	}
	f.closed = true
	conn := f.conn
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stop) })
	if conn != nil {
		conn.Close()
	}
	<-f.done
}

// Stats snapshots the follower's replication telemetry.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	promoted := f.promoted
	f.mu.Unlock()
	return FollowerStats{
		AppliedSeq: f.eng.AppendedSeq(),
		Connected:  f.connected.Load(),
		Reconnects: f.reconnects.Load(),
		Snapshots:  f.snapshots.Load(),
		Promoted:   promoted,
	}
}
