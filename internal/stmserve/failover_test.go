package stmserve

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/replica"
)

// newDurableService builds a Service over a fresh durable/norec engine in its
// own WAL dir, returning both so the replication layer can be wired to the
// engine directly. The caller closes the Service (which closes the WAL).
func newDurableService(t *testing.T, cfg Config) (*Service, *durable.Engine) {
	t.Helper()
	eng, err := durable.Wrap(engine.MustNew("norec", engine.Options{}), durable.Options{
		Dir:           t.TempDir(),
		Fsync:         durable.FsyncNever,
		SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, eng
}

// pipeDialer returns a Dialer that runs ServeConn over one end of a fresh
// net.Pipe per dial — the full wire stack, no sockets.
func pipeDialer(srv *Server) Dialer {
	return func() (Caller, error) {
		serverEnd, clientEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		return NewClient(clientEnd), nil
	}
}

// TestFailoverAuditEndToEnd is the in-process failover proof: a primary and a
// hot standby — each a full Service over its own durable engine — joined by
// the replication layer over a fault Link, quorum acks gating client acks.
// The audit loads the primary until it is killed mid-load, promotes the
// standby over the wire with PROMOTE, and asserts zero acked-commit loss and
// a conserved bank sum on the survivor. The CI replication-smoke job runs the
// same audit across real processes and kill -9.
func TestFailoverAuditEndToEnd(t *testing.T) {
	cfg := Config{Keys: 32, Initial: 100}
	svcP, engP := newDurableService(t, cfg)
	svcS, engS := newDurableService(t, cfg)
	t.Cleanup(func() { svcS.Close() })
	t.Cleanup(func() { svcP.Close() })

	prim := replica.NewPrimary(engP, replica.PrimaryOptions{
		Quorum:        1,
		AckTimeout:    5 * time.Second,
		Heartbeat:     30 * time.Millisecond,
		StreamTimeout: 500 * time.Millisecond,
	})
	t.Cleanup(prim.Close)
	foll := replica.NewFollower(engS, func() (net.Conn, error) {
		l := replica.NewLink()
		go prim.HandleConn(l.B())
		return l.A(), nil
	}, replica.FollowerOptions{
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		StreamTimeout: 500 * time.Millisecond,
		Seed:          7,
	})
	t.Cleanup(foll.Close)

	// The shell wiring cmd/stmserve does: promote and stats hooks onto the
	// services, replica telemetry adapted into the STATS replication block.
	svcP.SetReplStats(func() *ReplStats {
		st := prim.Stats()
		return &ReplStats{
			Role: "primary", AppendedSeq: st.AppendedSeq,
			Followers: st.Followers, MinAckedSeq: st.MinAckedSeq,
			LagSeqs: st.LagSeqs, LagBytes: st.LagBytes, Resyncs: st.Resyncs,
			Accepts: st.Accepts, Disconnects: st.Disconnects,
		}
	})
	svcS.SetPromote(foll.Promote)
	svcS.SetReplStats(func() *ReplStats {
		st := foll.Stats()
		return &ReplStats{
			Role: "follower", AppendedSeq: st.AppliedSeq,
			Connected: st.Connected, Reconnects: st.Reconnects,
			Snapshots: st.Snapshots, Promoted: st.Promoted,
		}
	})

	primaryDial := pipeDialer(NewServer(svcP))
	standbyDial := pipeDialer(NewServer(svcS))

	// A standby refuses update transactions while it still follows.
	{
		c, _ := standbyDial()
		var resp Response
		if err := c.Do(&Request{Op: OpWrite, Key: 0, Val: 1}, &resp); err != nil ||
			!strings.Contains(resp.Err, "standby") {
			t.Fatalf("standby write = %v %q, want standby refusal", err, resp.Err)
		}
		c.Close()
	}

	// The killer: once enough commits are acked mid-load, the primary
	// service dies (Close fails every in-flight and future op — the
	// in-process stand-in for kill -9, which CI does for real).
	killBase := engP.AppendedSeq()
	var killed atomic.Bool
	go func() {
		for engP.AppendedSeq() < killBase+50 {
			time.Sleep(5 * time.Millisecond)
		}
		killed.Store(true)
		svcP.Close()
	}()

	rep, err := RunAudit(primaryDial, standbyDial, AuditOptions{
		Conns:   2,
		Window:  20 * time.Second,
		Timeout: 10 * time.Second,
		Keys:    cfg.Keys,
	})
	if err != nil {
		t.Fatalf("failover audit: %v (report %+v)", err, rep)
	}
	if !killed.Load() {
		t.Fatalf("audit passed but the primary was never killed (report %+v)", rep)
	}
	if rep.Acked == 0 {
		t.Fatal("audit acked zero transfers before the kill")
	}
	if rep.AppliedSeq == 0 {
		t.Fatal("promoted standby reports a zero replication watermark")
	}
	if rep.Followers < 1 {
		t.Fatalf("audit observed %d followers before loading", rep.Followers)
	}

	// The promoted standby serves update transactions: failover is complete.
	{
		c, _ := standbyDial()
		defer c.Close()
		var resp Response
		if err := c.Do(&Request{Op: OpTransfer, Key: 1, Key2: 2, Val: 3}, &resp); err != nil || resp.Err != "" {
			t.Fatalf("transfer on promoted standby: %v %q", err, resp.Err)
		}
		// A second PROMOTE reports the terminal state as an op error.
		if err := c.Do(&Request{Op: OpPromote}, &resp); err != nil || !strings.Contains(resp.Err, "already promoted") {
			t.Fatalf("second PROMOTE = %v %q, want already-promoted", err, resp.Err)
		}
	}
}

// TestPromoteWithoutHook asserts OpPromote on a plain (non-replica) service
// is an op-level error, over the wire and programmatically.
func TestPromoteWithoutHook(t *testing.T) {
	svc := newTestService(t, Config{Keys: 4})
	sess := svc.Session()
	defer sess.Close()
	var resp Response
	if err := sess.Exec(&Request{Op: OpPromote}, &resp); err == nil ||
		!strings.Contains(resp.Err, "not a standby") {
		t.Fatalf("PROMOTE without hook = %v %q", err, resp.Err)
	}
}
