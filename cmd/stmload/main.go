// Command stmload drives zipfian transactional load against an stmserve
// server — or an in-process service — from many concurrent connections,
// and reports throughput plus per-op p50/p99/p999 client-side latency. It
// is the measurement half of the connection-mapping experiment: run the
// same load against -conn-mode thread and -conn-mode pool and compare the
// latency tables.
//
//	stmload -addr localhost:7070 -conns 1000 -duration 10s
//	stmload -addr localhost:7070 -mix transfer=80,snapshot=20 -zipf-s 1.5
//	stmload -engine norec -conn-mode pool -conns 256      in-process (no server, no sockets)
//	stmload -addr localhost:7070 -recovery-audit -expect-recovered
//	stmload -addr localhost:7070 -failover-audit -failover-addr localhost:7170
//
// -recovery-audit and -failover-audit switch stmload from throughput
// measurement to the acked-transfer audit (stmserve.RunAudit): record the
// last acknowledged transfer on every connection before the server at -addr
// dies (kill -9 it mid-run; -duration bounds the wait for that), reach the
// survivor, and exit non-zero unless it reflects every acked commit and
// conserves the bank sum. Under -recovery-audit the survivor is the same
// server restarted over its WAL; under -failover-audit it is the hot standby
// at -failover-addr, promoted with the PROMOTE op (start the primary with
// -repl-ack quorum), which must also report a nonzero replication watermark.
//
// After the run, stmload fetches the server's STATS and prints the engine's
// abort-reason mix next to the client-side latency, so one invocation shows
// both sides of the story. Exits non-zero if the run completed zero
// successful operations — the CI server-smoke job's assertion.
//
// Runtime diagnostics match the other cmds: -cpuprofile/-memprofile/-trace
// write the standard Go profiles, -http serves expvar and pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/stmserve"

	// Register the durable/* wrappers for in-process mode.
	_ "repro/internal/durable"
)

func main() {
	var (
		addr        = flag.String("addr", "", "stmserve line-protocol address (empty = in-process against -engine)")
		conns       = flag.Int("conns", 64, "concurrent connections")
		duration    = flag.Duration("duration", 5*time.Second, "measured run length")
		keys        = flag.Int("keys", 0, "keyspace size (0 = ask the server; sizes the in-process service)")
		batchKeys   = flag.Int("batch-keys", 8, "keys per snapshot/batch request")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf exponent (> 1; larger = more skew)")
		zipfV       = flag.Float64("zipf-v", 1, "zipf offset (≥ 1)")
		mixSpec     = flag.String("mix", "", "operation mix, e.g. transfer=40,read=20,snapshot=10,cas=10,set=5 (default: built-in bank blend)")
		seed        = flag.Int64("seed", 1, "base RNG seed (per-connection seeds derive from it)")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON instead of a table")
		audit       = flag.Bool("recovery-audit", false, "crash-recovery audit: load acked transfers until the server dies, reconnect, verify nothing acked was lost (requires -addr)")
		failover    = flag.Bool("failover-audit", false, "failover audit: load the replicated primary at -addr until it dies, promote the standby at -failover-addr, verify nothing acked was lost")
		failAddr    = flag.String("failover-addr", "", "failover audit: the hot standby's line-protocol address")
		reconnectTO = flag.Duration("reconnect-timeout", 30*time.Second, "recovery audit: how long to wait for the restarted server")
		expectRec   = flag.Bool("expect-recovered", false, "recovery audit: also require the restarted server to report ≥ 1 recovered WAL commit")
		skipSum     = flag.Bool("skip-sum", false, "recovery audit: skip the conserved-sum check (other clients ran non-transfer traffic)")
		engName     = flag.String("engine", "norec", "in-process engine backend when -addr is empty")
		connMode    = flag.String("conn-mode", stmserve.ModeThread, "in-process connection mapping: thread|pool")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath   = flag.String("trace", "", "write an execution trace to this file")
		httpAddr    = flag.String("http", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	)
	var opt engine.Options
	opt.BindFlags(flag.CommandLine)
	flag.Parse()

	stopDiag, err := diag.Start(diag.Flags{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath, HTTP: *httpAddr,
	})
	if err != nil {
		fatal(err)
	}

	mix := stmserve.DefaultMix
	if *mixSpec != "" {
		if mix, err = stmserve.ParseMix(*mixSpec); err != nil {
			fatal(err)
		}
	}
	opts := stmserve.LoadOptions{
		Conns: *conns, Duration: *duration, Keys: *keys, BatchKeys: *batchKeys,
		ZipfS: *zipfS, ZipfV: *zipfV, Mix: mix, Seed: *seed,
	}

	var dial stmserve.Dialer
	if *addr != "" {
		dial = stmserve.NetDialer(*addr)
	} else {
		if opt.Nodes == 0 {
			opt.Nodes = runtime.GOMAXPROCS(0)
		}
		eng, err := engine.New(*engName, opt)
		if err != nil {
			fatal(err)
		}
		kv := *keys
		if kv == 0 {
			kv = 1024
		}
		svc, err := stmserve.New(eng, stmserve.Config{
			Keys: kv, Mode: *connMode,
		})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		dial = stmserve.ServiceDialer(svc)
		fmt.Printf("stmload: in-process engine=%s keys=%d mode=%s\n", eng.Name(), kv, svc.Mode())
	}

	if *audit || *failover {
		// One audit, two survivors: the same node restarted over its WAL, or
		// (with a standby to dial) the hot standby promoted.
		var standby stmserve.Dialer
		kind := "recovery"
		switch {
		case *failover && (*addr == "" || *failAddr == ""):
			fatal(fmt.Errorf("-failover-audit requires -addr (the primary) and -failover-addr (the standby)"))
		case *failover:
			standby, kind = stmserve.NetDialer(*failAddr), "failover"
		case *addr == "":
			fatal(fmt.Errorf("-recovery-audit requires -addr: the audit observes a real server crash and restart"))
		}
		rep, aerr := stmserve.RunAudit(dial, standby, stmserve.AuditOptions{
			Conns: *conns, Window: *duration, Timeout: *reconnectTO,
			Keys: *keys, ExpectRecovered: *expectRec, SkipSum: *skipSum,
		})
		if *jsonOut {
			if data, jerr := json.MarshalIndent(rep, "", "  "); jerr == nil {
				fmt.Println(string(data))
			}
		} else {
			proof := fmt.Sprintf("recovered %d commits (seq %d)", rep.RecoveredCommits, rep.RecoveredSeq)
			if standby != nil {
				proof = fmt.Sprintf("%d follower(s), watermark seq %d", rep.Followers, rep.AppliedSeq)
			}
			fmt.Printf("stmload: %s audit: %d conns acked %d transfers, down after %v, survivor up after %v, sum %d/%d, %s\n",
				kind, rep.Conns, rep.Acked, rep.DownAfter.Round(time.Millisecond), rep.ReconnectAfter.Round(time.Millisecond),
				rep.Sum, rep.WantSum, proof)
		}
		if aerr != nil {
			fatal(aerr)
		}
		fmt.Printf("stmload: %s audit passed: every acked commit survived\n", kind)
		if err := stopDiag(); err != nil {
			fatal(err)
		}
		return
	}

	rep, err := stmserve.RunLoad(dial, opts)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("stmload: %d conns, %v: %d ops (%.0f ops/s), %d errs, %d dial errs\n",
			rep.Conns, rep.Duration, rep.Ops, rep.Throughput, rep.Errs, rep.DialErrs)
		fmt.Print(rep.Table())
	}
	printServerStats(dial)

	if err := stopDiag(); err != nil {
		fatal(err)
	}
	if rep.Ops == 0 {
		fatal(fmt.Errorf("zero successful operations"))
	}
}

// printServerStats shows the service-side view — most importantly the
// engine's abort-reason mix, which the client-side report cannot see.
func printServerStats(dial stmserve.Dialer) {
	c, err := dial()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmload: stats:", err)
		return
	}
	defer c.Close()
	st, err := stmserve.StatsCall(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmload: stats:", err)
		return
	}
	es := st.EngineStats
	fmt.Printf("server: engine=%s mode=%s commits=%d aborts=%d (rate=%.4f) mix=%s\n",
		st.Engine, st.Mode, es.Commits, es.Aborts, es.AbortRate(), es.AbortMix())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmload:", err)
	os.Exit(1)
}
