// Command stmserve serves transactional operations over any registered STM
// engine — the wire-facing face of the engine family (internal/stmserve).
// It is deliberately a thin shell: flags, listeners and signal handling
// live here; every transactional semantic lives in the service layer, which
// is tested without sockets.
//
//	stmserve -engine norec                          line protocol on :7070
//	stmserve -engine lsa/shared -conn-mode pool     GOMAXPROCS engine threads instead of one per conn
//	stmserve -engine tl2 -http-api localhost:8080   plus the HTTP/JSON API (/op, /engines, /stats)
//	stmserve -engine lsa/extsync -deviation 500     engine tunables via the shared Options flags
//
// The two -conn-mode values are the experiment cmd/stmload exists to run:
// "thread" lends every connection its own engine thread (state grows with
// connections, no queueing), "pool" lends each request one of GOMAXPROCS
// long-lived threads (fixed state, waiting for a thread under load).
// SIGINT/SIGTERM shut down gracefully and print the per-op latency table
// and the engine's abort taxonomy.
//
// A durable engine can replicate. The primary streams its WAL to followers:
//
//	stmserve -engine durable/norec -wal ./p -repl-listen :7071 -repl-ack quorum
//	stmserve -engine durable/norec -wal ./f -listen :7170 -follow host:7071
//
// A follower serves reads but refuses updates until the PROMOTE op (or a
// dead primary's operator) seals its stream and brings it up as serving
// primary — cmd/stmload's -failover-audit drives exactly that and proves no
// quorum-acked commit was lost. STATS gains a "replication" block on both
// roles (follower count, lag in seqs and bytes, resyncs, reconnects).
//
// Runtime diagnostics match the other cmds: -cpuprofile/-memprofile/-trace
// write the standard Go profiles, -http serves expvar and pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/stats"
	"repro/internal/stmserve"
)

func main() {
	var (
		listen     = flag.String("listen", ":7070", "line-protocol listen address")
		httpAPI    = flag.String("http-api", "", "also serve the HTTP/JSON API on this address (POST /op, GET /engines, /stats, /healthz)")
		engName    = flag.String("engine", "norec", "engine backend (see lsabench -list-engines)")
		keys       = flag.Int("keys", 1024, "keyspace size")
		initial    = flag.Int64("initial", 1000, "initial balance per key")
		connMode   = flag.String("conn-mode", stmserve.ModeThread, "connection-to-engine-thread mapping: thread|pool")
		replListen = flag.String("repl-listen", "", "stream the WAL to followers on this address (primary role; durable engines only)")
		follow     = flag.String("follow", "", "replicate from the primary at this address (hot-standby role; durable engines only)")
		replAck    = flag.String("repl-ack", "none", "replication ack mode: none (commits ack locally) or quorum (client acks wait for -repl-quorum follower acks)")
		replQuorum = flag.Int("repl-quorum", 1, "follower acks a commit needs in -repl-ack quorum mode")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath  = flag.String("trace", "", "write an execution trace to this file")
		httpAddr   = flag.String("http", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	)
	var opt engine.Options
	opt.BindFlags(flag.CommandLine)
	flag.Parse()
	if *replListen != "" && *follow != "" {
		fatal(fmt.Errorf("-repl-listen and -follow are mutually exclusive (a node is a primary or a follower, not both)"))
	}
	if *replAck != "none" && *replAck != "quorum" {
		fatal(fmt.Errorf("-repl-ack %q: want none or quorum", *replAck))
	}
	if *replAck == "quorum" && *replListen == "" {
		fatal(fmt.Errorf("-repl-ack quorum only applies to a primary (-repl-listen)"))
	}
	if *replQuorum < 1 {
		fatal(fmt.Errorf("-repl-quorum %d: must be ≥ 1", *replQuorum))
	}
	if opt.Nodes == 0 {
		// Engine threads are made per open connection (thread mode) or
		// GOMAXPROCS of them (pool mode); size the per-node time bases for
		// the pool and let larger ids share clocks modulo Nodes.
		opt.Nodes = runtime.GOMAXPROCS(0)
	}

	stopDiag, err := diag.Start(diag.Flags{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath, HTTP: *httpAddr,
	})
	if err != nil {
		fatal(err)
	}

	eng, err := engine.New(*engName, opt)
	if err != nil {
		fatal(err)
	}
	if d, ok := eng.(engine.Durable); ok {
		// Recovery already ran inside engine.New (replay is part of
		// constructing a durable engine); report what it found before the
		// service repopulates the keyspace from the recovered cells.
		di := d.DurabilityInfo()
		fmt.Printf("stmserve: durable: wal=%s fsync=%s recovered %d commits (seq %d, snapshot %d, torn tail %d bytes)\n",
			di.WALDir, di.FsyncPolicy, di.RecoveredCommits, di.RecoveredSeq, di.SnapshotSeq, di.TornTailBytes)
	}
	svc, err := stmserve.New(eng, stmserve.Config{
		Keys: *keys, Initial: *initial, Mode: *connMode,
	})
	if err != nil {
		fatal(err)
	}
	diag.Publish("stmserve", func() any { return svc.Stats() })

	// Replication wiring: the shell adapts the replica layer onto the
	// service's hooks so internal/stmserve never imports internal/replica.
	var (
		prim   *replica.Primary
		foll   *replica.Follower
		replLn net.Listener
	)
	if *replListen != "" || *follow != "" {
		deng, ok := eng.(*durable.Engine)
		if !ok {
			fatal(fmt.Errorf("replication needs a durable engine (-engine durable/...), not %s", eng.Name()))
		}
		if *replListen != "" {
			quorum := 0
			if *replAck == "quorum" {
				quorum = *replQuorum
			}
			prim = replica.NewPrimary(deng, replica.PrimaryOptions{Quorum: quorum})
			replLn, err = net.Listen("tcp", *replListen)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("stmserve: primary: streaming WAL to followers on %s (ack=%s)\n", replLn.Addr(), *replAck)
			go func() {
				// The accept loop ends when shutdown closes the listener; that
				// error is the normal exit, not worth reporting.
				_ = prim.Serve(replLn)
			}()
			svc.SetReplStats(func() *stmserve.ReplStats {
				st := prim.Stats()
				return &stmserve.ReplStats{
					Role: "primary", AppendedSeq: st.AppendedSeq,
					Followers: st.Followers, MinAckedSeq: st.MinAckedSeq,
					LagSeqs: st.LagSeqs, LagBytes: st.LagBytes, Resyncs: st.Resyncs,
					Accepts: st.Accepts, Disconnects: st.Disconnects,
				}
			})
		} else {
			addr := *follow
			foll = replica.NewFollower(deng, func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			}, replica.FollowerOptions{})
			fmt.Printf("stmserve: hot standby following %s (updates refused until PROMOTE)\n", addr)
			svc.SetPromote(foll.Promote)
			svc.SetReplStats(func() *stmserve.ReplStats {
				st := foll.Stats()
				return &stmserve.ReplStats{
					Role: "follower", AppendedSeq: st.AppliedSeq,
					Connected: st.Connected, Reconnects: st.Reconnects,
					Snapshots: st.Snapshots, Promoted: st.Promoted,
				}
			})
		}
	}

	srv := stmserve.NewServer(svc)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stmserve: engine=%s keys=%d mode=%s listening on %s\n",
		eng.Name(), *keys, svc.Mode(), l.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	var httpSrv *http.Server
	if *httpAPI != "" {
		httpSrv = &http.Server{Addr: *httpAPI, Handler: stmserve.NewHTTPHandler(svc)}
		fmt.Printf("stmserve: HTTP/JSON API on %s\n", *httpAPI)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "stmserve: http api:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("stmserve: %v, shutting down\n", s)
	case err := <-serveErr:
		if err != nil && err != stmserve.ErrServerClosed {
			fatal(err)
		}
	}
	// Shutdown ordering matters: drain the line-protocol handlers (Shutdown
	// waits for every in-flight session), drain the HTTP API the same way,
	// and only then close the service — which flushes and closes the WAL as
	// its last step — so the stats table below is exact and every
	// acknowledged commit is on disk before the process exits.
	srv.Shutdown()
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "stmserve: http api shutdown:", err)
		}
		cancel()
	}
	// Replication teardown before the WAL closes: the follower loop quiesces
	// (a no-op if it promoted), the primary stops tapping commits and drops
	// its streams.
	if foll != nil {
		foll.Close()
	}
	if prim != nil {
		replLn.Close()
		prim.Close()
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stmserve: wal close:", err)
	}

	report(svc.Stats())
	if err := stopDiag(); err != nil {
		fatal(err)
	}
}

// report prints the shutdown summary: per-op service-side latency and the
// engine's abort taxonomy (exact now that the service is quiesced).
func report(st stmserve.Stats) {
	if st.Ops == 0 && st.Errs == 0 {
		fmt.Println("stmserve: no operations served")
		return
	}
	t := stats.NewTable("op", "ops", "errs", "p50", "p99", "p999")
	for _, op := range st.PerOp {
		p50, p99, p999 := "-", "-", "-"
		if s := op.Latency; s != nil {
			p50 = time.Duration(s.P50).String()
			p99 = time.Duration(s.P99).String()
			p999 = time.Duration(s.P999).String()
		}
		t.AddRowf(op.Op, op.Ops, op.Errs, p50, p99, p999)
	}
	fmt.Printf("\nstmserve: %d ops (%d errs), engine %s, mode %s\n%s",
		st.Ops, st.Errs, st.Engine, st.Mode, t.String())
	es := st.EngineStats
	fmt.Printf("engine: commits=%d aborts=%d (rate=%.4f) mix=%s\n",
		es.Commits, es.Aborts, es.AbortRate(), es.AbortMix())
	if data, err := json.Marshal(st); err == nil {
		fmt.Printf("stats: %s\n", data)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmserve:", err)
	os.Exit(1)
}
