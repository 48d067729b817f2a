package stmserve

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("transfer=40,read=20,set=6")
	if err != nil {
		t.Fatal(err)
	}
	if m.Transfer != 40 || m.Read != 20 || m.SetOps != 6 || m.CAS != 0 {
		t.Fatalf("ParseMix = %+v", m)
	}
	for _, bad := range []string{"", "transfer", "transfer=x", "transfer=-1", "warp=3", "read=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMixTable(t *testing.T) {
	entries, total, err := Mix{Transfer: 3, SetOps: 2}.table()
	if err != nil {
		t.Fatal(err)
	}
	if total != 3+3*2 {
		t.Fatalf("total = %d, want 9", total)
	}
	if len(entries) != 4 { // transfer + the three set verbs
		t.Fatalf("entries = %+v", entries)
	}
	if _, _, err := (Mix{}).table(); err == nil {
		t.Fatal("empty mix accepted")
	}
}

// TestRunLoadInProc drives the whole load generator against an in-process
// service — no sockets — and checks the report adds up.
func TestRunLoadInProc(t *testing.T) {
	svc := newTestService(t, Config{Keys: 64})
	// Keys is pinned so the INFO discovery probe is skipped and the
	// service-side op count matches the report exactly.
	rep, err := RunLoad(ServiceDialer(svc), LoadOptions{
		Conns:    4,
		Keys:     64,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("load run completed zero operations")
	}
	if rep.Errs != 0 {
		t.Fatalf("load run hit %d op errors", rep.Errs)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput)
	}
	var perOpSum uint64
	for _, op := range rep.PerOp {
		perOpSum += op.Ops
		if op.Latency == nil {
			t.Fatalf("op %s without latency summary", op.Op)
		}
		if err := op.Latency.Validate(); err != nil {
			t.Fatalf("op %s latency: %v", op.Op, err)
		}
	}
	if perOpSum != rep.Ops {
		t.Fatalf("per-op ops sum to %d, total says %d", perOpSum, rep.Ops)
	}
	// The default mix is transfer-dominated and PerOp is sorted by volume.
	if rep.PerOp[0].Op != "transfer" {
		t.Fatalf("busiest op = %s, want transfer", rep.PerOp[0].Op)
	}
	// The rendered table carries every op row.
	table := rep.Table()
	for _, op := range rep.PerOp {
		if !strings.Contains(table, op.Op) {
			t.Fatalf("table misses op %s:\n%s", op.Op, table)
		}
	}
	// The service observed the same committed volume.
	if got := svc.Stats().Ops; got != rep.Ops {
		t.Fatalf("service saw %d ops, report says %d", got, rep.Ops)
	}
}

// TestRunLoadOverTCP is the end-to-end smoke: server on loopback, load over
// real sockets, both connection-mapping modes.
func TestRunLoadOverTCP(t *testing.T) {
	for _, mode := range []string{ModeThread, ModePool} {
		t.Run(mode, func(t *testing.T) {
			eng := engine.MustNew("norec", engine.Options{})
			svc, err := New(eng, Config{Keys: 64, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(svc)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)

			rep, err := RunLoad(NetDialer(l.Addr().String()), LoadOptions{
				Conns:    8,
				Duration: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops == 0 {
				t.Fatal("zero ops over TCP")
			}
			if rep.Keys != 64 {
				t.Fatalf("keyspace discovered via INFO = %d, want 64", rep.Keys)
			}
			srv.Shutdown()
			svc.Close()
		})
	}
}

func TestRunLoadRejects(t *testing.T) {
	svc := newTestService(t, Config{Keys: 8})
	if _, err := RunLoad(ServiceDialer(svc), LoadOptions{ZipfS: 0.5, Duration: time.Millisecond}); err == nil {
		t.Fatal("zipf s ≤ 1 accepted")
	}
	if _, err := RunLoad(ServiceDialer(svc), LoadOptions{Keys: 1, Duration: time.Millisecond}); err == nil {
		t.Fatal("single-key keyspace accepted")
	}
	bad := func() (Caller, error) { return nil, net.ErrClosed }
	if _, err := RunLoad(Dialer(bad), LoadOptions{Conns: 2, Keys: 8, Duration: time.Millisecond}); err == nil {
		t.Fatal("all-connections-failed run reported success")
	}
}
