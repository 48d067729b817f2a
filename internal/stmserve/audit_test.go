package stmserve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"

	_ "repro/internal/durable"
)

// TestRecoveryAuditInProcess runs the full audit protocol against an
// in-process durable service: load, "crash" (close the service and discard
// it), restart over the same WAL dir, verify. The real-process variant —
// kill -9 of cmd/stmserve — lives in cmd/stmserve's tests and the CI
// crash-recovery job; this one proves the protocol logic race-clean.
func TestRecoveryAuditInProcess(t *testing.T) {
	dir := t.TempDir()
	newSvc := func() *Service {
		t.Helper()
		eng, err := engine.New("durable/norec", engine.Options{WALDir: dir, Fsync: "always"})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(eng, Config{Keys: 64})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	var cur atomic.Pointer[Service] // nil while the "server" is down
	cur.Store(newSvc())
	dial := func() (Caller, error) {
		p := cur.Load()
		if p == nil {
			return nil, errors.New("server down")
		}
		return &sessionCaller{sess: p.Session()}, nil
	}

	// Crash after a moment of load, stay down briefly, then restart over the
	// same WAL. Closing the service flushes the WAL, but the audit does not
	// rely on that: fsync=always makes every acked transfer durable anyway.
	go func() {
		time.Sleep(100 * time.Millisecond)
		old := cur.Swap(nil)
		old.Close()
		time.Sleep(100 * time.Millisecond)
		cur.Store(newSvc())
	}()

	rep, err := RunAudit(dial, nil, AuditOptions{
		Conns:           4,
		Window:          30 * time.Second,
		Timeout:         30 * time.Second,
		ExpectRecovered: true,
	})
	if err != nil {
		t.Fatalf("audit failed: %v (report %+v)", err, rep)
	}
	if rep.Acked == 0 {
		t.Fatal("audit acked zero transfers before the crash")
	}
	if rep.RecoveredCommits == 0 {
		t.Fatal("restarted server reported zero recovered commits")
	}
	if rep.Sum != rep.WantSum {
		t.Fatalf("sum %d != want %d", rep.Sum, rep.WantSum)
	}
	cur.Load().Close()
}

// TestAuditFailurePaths pins the ways the audit must fail loudly instead of
// reporting success, each through the one driver against in-process
// services.
func TestAuditFailurePaths(t *testing.T) {
	// replicated builds a service whose STATS carry a primary's replication
	// block with one attached follower.
	replicated := func(t *testing.T) *Service {
		svc := newTestService(t, Config{Keys: 64})
		svc.SetReplStats(func() *ReplStats { return &ReplStats{Role: "primary", Followers: 1} })
		return svc
	}
	const timeout = 20 * time.Second
	for _, tc := range []struct {
		name    string
		primary func(t *testing.T) *Service
		standby bool // promote a plain service: it has no promote hook
		kill    bool // close the primary once transfers are flowing
		opts    AuditOptions
		want    string
		loaded  bool // whether the failure comes after the load phase
	}{
		{name: "server never dies",
			primary: func(t *testing.T) *Service { return newTestService(t, Config{Keys: 64}) },
			opts:    AuditOptions{Conns: 2, Window: 100 * time.Millisecond},
			want:    "still up", loaded: true},
		{name: "conns vs keys",
			primary: func(t *testing.T) *Service { return newTestService(t, Config{Keys: 8}) },
			opts:    AuditOptions{Conns: 5, Window: time.Second},
			want:    "marker+sink"},
		{name: "standby without promote hook",
			primary: replicated, standby: true, kill: true,
			opts: AuditOptions{Conns: 2, Window: timeout, Timeout: timeout},
			want: "refused PROMOTE", loaded: true},
		{name: "primary without replication block",
			primary: func(t *testing.T) *Service { return newTestService(t, Config{Keys: 64}) },
			standby: true,
			opts:    AuditOptions{Conns: 2, Window: timeout, Timeout: timeout},
			want:    "no replication block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.primary(t)
			defer svc.Close()
			var standby Dialer
			if tc.standby {
				sb := newTestService(t, Config{Keys: 64})
				defer sb.Close()
				standby = ServiceDialer(sb)
			}
			// The primary's dialer counts calls, so the killer can wait for
			// transfers to flow without touching the service's live stats.
			var calls atomic.Int64
			primary := func() (Caller, error) {
				return &countingCaller{sessionCaller{sess: svc.Session()}, &calls}, nil
			}
			if tc.kill {
				go func() {
					for calls.Load() < 20 {
						time.Sleep(time.Millisecond)
					}
					svc.Close()
				}()
			}
			start := time.Now()
			rep, err := RunAudit(primary, standby, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q failure, got %v (report %+v)", tc.want, err, rep)
			}
			// A refusal or a missing precondition is final: the audit must
			// say so at once, not poll until its timeout.
			if d := time.Since(start); d > timeout/2 {
				t.Errorf("failure took %v, want it prompt", d)
			}
			if loaded := rep.PerConn != nil; loaded != tc.loaded {
				t.Errorf("load phase ran = %v, want %v (acked %d)", loaded, tc.loaded, rep.Acked)
			}
		})
	}
}

type countingCaller struct {
	sessionCaller
	calls *atomic.Int64
}

func (c *countingCaller) Do(req *Request, resp *Response) error {
	c.calls.Add(1)
	return c.sessionCaller.Do(req, resp)
}
