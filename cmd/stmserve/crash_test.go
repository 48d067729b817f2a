package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/stmserve"
)

// TestKillNineRecovery is the real-process half of the crash-recovery
// proof: build the actual stmserve binary, run it with a WAL, hard-kill it
// (SIGKILL — no handlers, no flush, exactly `kill -9`) while the recovery
// audit is driving acknowledged transfers over TCP, restart it over the
// same WAL directory, and require the audit to find every acked commit
// again. The in-process tests in internal/durable kill the disk at every
// file operation of a run, through a test file system; this covers the one
// thing they cannot — a dead process.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "stmserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Both server runs must bind the same address (the audit reconnects to
	// it), so reserve a port the usual racy-but-reliable way.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	walDir := t.TempDir()
	start := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin,
			"-engine", "durable/norec", "-wal", walDir, "-fsync", "group",
			"-keys", "64", "-listen", addr)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The server prints "listening on <addr>" once the socket is bound.
		ready := make(chan error, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.Contains(sc.Text(), "listening on") {
					ready <- nil
					// Keep draining so the server never blocks on stdout.
					for sc.Scan() {
					}
					return
				}
			}
			ready <- fmt.Errorf("server exited before listening (%v)", sc.Err())
		}()
		select {
		case err := <-ready:
			if err != nil {
				cmd.Process.Kill()
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			t.Fatal("server did not start listening in time")
		}
		return cmd
	}

	srv := start()

	// Drive the audit from this process over real TCP; it blocks until the
	// server dies, reconnects, and verifies.
	auditDone := make(chan struct {
		rep *stmserve.AuditReport
		err error
	}, 1)
	go func() {
		rep, err := stmserve.RunAudit(stmserve.NetDialer(addr), nil, stmserve.AuditOptions{
			Conns:           4,
			Window:          60 * time.Second,
			Timeout:         60 * time.Second,
			ExpectRecovered: true,
		})
		auditDone <- struct {
			rep *stmserve.AuditReport
			err error
		}{rep, err}
	}()

	// Let the audit bank some acked transfers, then kill -9.
	time.Sleep(500 * time.Millisecond)
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err == nil {
		t.Fatal("SIGKILLed server exited cleanly?")
	}

	// Restart over the same WAL; the audit's reconnect loop finds it.
	srv2 := start()
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()

	select {
	case res := <-auditDone:
		if res.err != nil {
			t.Fatalf("recovery audit failed: %v (report %+v)", res.err, res.rep)
		}
		if res.rep.Acked == 0 {
			t.Fatal("audit acked zero transfers before the kill")
		}
		if res.rep.RecoveredCommits == 0 {
			t.Fatal("restarted server recovered zero commits")
		}
		t.Logf("kill -9 audit: acked %d, down after %v, back after %v, recovered %d commits",
			res.rep.Acked, res.rep.DownAfter.Round(time.Millisecond),
			res.rep.ReconnectAfter.Round(time.Millisecond), res.rep.RecoveredCommits)
	case <-time.After(120 * time.Second):
		t.Fatal("recovery audit did not finish")
	}
}
