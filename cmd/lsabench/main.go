// Command lsabench regenerates the paper's evaluation (§4) from the
// command line. Each experiment prints the same rows/series the paper
// reports:
//
//	lsabench -experiment fig1                 MMTimer synchronization errors (Figure 1)
//	lsabench -experiment fig2                 time-base overhead, real STM (Figure 2)
//	lsabench -experiment fig2sim              time-base overhead, simulated 16-CPU machine (Figure 2)
//	lsabench -experiment tl2opt               TL2 counter optimization comparison (§4.2)
//	lsabench -experiment errors               synchronization-error ablation (§4.3)
//	lsabench -experiment baselines            LSA-RT vs TL2 vs validating STM (§1.2)
//	lsabench -experiment bench                cross-engine workload matrix (every registered backend)
//	lsabench -experiment sweep                scaling curves: bench matrix at worker counts 1,2,4,...,GOMAXPROCS
//	lsabench -experiment all                  everything above except sweep (which multiplies bench by the
//	                                          number of worker counts — run it explicitly)
//
// The bench experiment iterates the engine registry: every STM backend —
// LSA under each time base, TL2 (on its counter and on the externally
// synchronized clock), the word-based engine, the validating baseline, the
// NOrec sequence-lock engine, and the coarse-global-lock reference — runs
// the same workloads through the same harness. Select backends with -engine
// (which implies -experiment bench when no experiment is named):
//
//	lsabench -engine tl2                      bank + intset on TL2 only
//	lsabench -engine lsa/mmtimer,wordstm      two backends, same scenarios
//	lsabench -experiment bench -json BENCH_engines.json
//
// With -json, bench and sweep results are also written as machine-readable
// records (one per engine × workload) so successive PRs can track the
// performance trajectory in checked-in BENCH_*.json files. Records carry the
// commit-latency distribution (p50/p99/p999 over power-of-two nanosecond
// buckets) next to throughput; sweep records additionally carry the whole
// scaling curve.
//
// Runtime diagnostics apply to any experiment: -cpuprofile/-memprofile/-trace
// write the standard Go profiles, -http serves expvar (/debug/vars, including
// the latest bench results under "bench") and pprof while the process runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workload"

	// Registers the durable/* wrappers: benchable via -engine durable/norec,
	// excluded from the default matrix (see selectedEngines).
	"repro/internal/durable"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "fig1|fig2|fig2word|fig2sim|tl2opt|errors|baselines|bench|sweep|all (default all; bench when -engine is set)")
		duration   = flag.Duration("duration", 300*time.Millisecond, "measured interval per point (real-STM experiments)")
		warmup     = flag.Duration("warmup", 0, "warmup before each measurement (default duration/5)")
		threads    = flag.String("threads", "", "comma-separated worker counts (default 1,2,4,6,8,12,16)")
		sizes      = flag.String("sizes", "", "comma-separated transaction sizes (default 10,50,100)")
		rounds     = flag.Int("rounds", 100, "clock-comparison rounds for fig1")
		simNs      = flag.Int64("sim-ns", 50_000_000, "simulated horizon per fig2sim point, ns")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		engines    = flag.String("engine", "", "comma-separated engine names for the bench experiment (default: all registered; see -list-engines)")
		listEng    = flag.Bool("list-engines", false, "print the registered engines with their capabilities and exit")
		workers    = flag.Int("workers", 4, "worker count for the bench experiment")
		jsonPath   = flag.String("json", "", "also write bench/sweep results as JSON records to this file (\"-\" = stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath  = flag.String("trace", "", "write an execution trace to this file")
		httpAddr   = flag.String("http", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
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
	defer func() {
		if err := stopDiag(); err != nil {
			fatal(err)
		}
	}()

	if *listEng {
		// The registry's introspection API replaces the ad-hoc per-engine
		// type assertions this listing used to need.
		t := stats.NewTable("engine", "multi-version", "durable", "tunables", "summary")
		for _, info := range engine.Infos() {
			t.AddRowf(info.Name,
				yn(info.Capabilities.MultiVersion),
				yn(info.Capabilities.Durable),
				strings.Join(info.Capabilities.Tunables, ","),
				info.Summary)
		}
		emit(t, *csv)
		return
	}

	// A bare -engine selection means "run the cross-engine bench on these".
	if *experiment == "" {
		if *engines != "" {
			*experiment = "bench"
		} else {
			*experiment = "all"
		}
	}
	// -engine and -json only affect the bench and sweep experiments; refuse
	// silently dropping them when an explicit experiment excludes them.
	if *experiment != "bench" && *experiment != "sweep" && *experiment != "all" {
		if *engines != "" {
			fatal(fmt.Errorf("-engine only applies to -experiment bench or sweep (got -experiment %s)", *experiment))
		}
		if *jsonPath != "" {
			fatal(fmt.Errorf("-json only applies to -experiment bench or sweep (got -experiment %s)", *experiment))
		}
	}

	th, err := parseInts(*threads)
	if err != nil {
		fatal(err)
	}
	sz, err := parseInts(*sizes)
	if err != nil {
		fatal(err)
	}

	run := func(name string) {
		switch name {
		case "fig1":
			res, err := experiments.Fig1(experiments.Fig1Config{Rounds: *rounds})
			if err != nil {
				fatal(err)
			}
			header("Figure 1 — MMTimer synchronization errors and offsets")
			fmt.Printf("run max: |offset|=%d ticks, error=%d ticks\n\n",
				res.Measurement.MaxAbsOffset(), res.Measurement.MaxError())
			emit(res.Table, *csv)
		case "fig2":
			res, err := experiments.Fig2(experiments.Fig2Config{
				Sizes: sz, Threads: th, Duration: *duration, Warmup: *warmup,
			})
			if err != nil {
				fatal(err)
			}
			header("Figure 2 — time-base overhead for disjoint updates (real STM on this host)")
			emit(res.Table, *csv)
		case "fig2word":
			res, err := experiments.Fig2Word(experiments.Fig2Config{
				Sizes: sz, Threads: th, Duration: *duration, Warmup: *warmup,
			})
			if err != nil {
				fatal(err)
			}
			header("Figure 2 on the word-based LSA engine (time bases are representation-agnostic, §1.1)")
			emit(res.Table, *csv)
		case "fig2sim":
			res, err := experiments.Fig2Sim(experiments.Fig2SimConfig{
				Sizes: sz, Threads: th, DurationNs: *simNs,
			})
			if err != nil {
				fatal(err)
			}
			header("Figure 2 — time-base overhead on the simulated 16-CPU ccNUMA machine")
			emit(res.Table, *csv)
		case "tl2opt":
			res, err := experiments.TL2Opt(experiments.Fig2Config{
				Sizes: sz, Threads: th, Duration: *duration, Warmup: *warmup,
			})
			if err != nil {
				fatal(err)
			}
			header("§4.2 — shared counter vs TL2 commit-timestamp sharing")
			emit(res.Table, *csv)
		case "errors":
			res, err := experiments.SyncErrors(experiments.SyncErrorsConfig{
				Duration: *duration, Warmup: *warmup,
			})
			if err != nil {
				fatal(err)
			}
			header("§4.3 — synchronization error vs abort behaviour")
			emit(res.Table, *csv)
		case "baselines":
			res, err := experiments.Baselines(experiments.BaselinesConfig{
				Duration: *duration, Warmup: *warmup,
			})
			if err != nil {
				fatal(err)
			}
			header("§1.2 — read-only scans under disjoint updates: LSA-RT vs baselines")
			emit(res.Table, *csv)
		case "bench":
			results, err := runBench(selectedEngines(*engines), opt, *workers, *duration, *warmup)
			if err != nil {
				fatal(err)
			}
			publishResults(results)
			host := harness.CurrentHost()
			header(fmt.Sprintf("Cross-engine workload matrix (one harness, every registered backend; host: %d CPUs, GOMAXPROCS %d)",
				host.NumCPU, host.GOMAXPROCS))
			emit(benchTable(results), *csv)
			if *jsonPath != "" {
				if err := writeJSON(*jsonPath, results); err != nil {
					fatal(err)
				}
			}
		case "sweep":
			counts := th
			if len(counts) == 0 {
				counts = harness.DefaultWorkerCounts(runtime.GOMAXPROCS(0))
			}
			results, err := harness.SweepAcross(selectedEngines(*engines), benchWorkloads, counts,
				opt, harness.Options{Duration: *duration, Warmup: *warmup})
			if err != nil {
				fatal(err)
			}
			publishResults(results)
			host := harness.CurrentHost()
			header(fmt.Sprintf("Scaling curves — bench matrix at worker counts %v (host: %d CPUs, GOMAXPROCS %d)",
				counts, host.NumCPU, host.GOMAXPROCS))
			emit(sweepTable(results), *csv)
			if *jsonPath != "" {
				if err := writeJSON(*jsonPath, results); err != nil {
					fatal(err)
				}
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *experiment == "all" {
		for _, name := range []string{"fig1", "fig2", "fig2word", "fig2sim", "tl2opt", "errors", "baselines", "bench"} {
			run(name)
		}
		return
	}
	run(*experiment)
}

// benchWorkloads are the scenarios of the cross-engine matrix. Fresh values
// per engine: workloads hold engine-bound state after Init.
func benchWorkloads() []harness.Workload {
	return []harness.Workload{
		&workload.Bank{Accounts: 64, Seed: 1},
		&workload.IntSet{KeyRange: 128, Seed: 1},
		&workload.HashSet{Buckets: 64, Seed: 1},
		&workload.SkipList{KeyRange: 512, Seed: 1},
		&workload.SlotQueue{Groups: 8, SlotsPerGroup: 16, Seed: 1},
		&workload.Disjoint{Accesses: 10},
	}
}

func selectedEngines(spec string) []string {
	if spec == "" || spec == "all" {
		// The default matrix is every registered engine, durable wrappers
		// included: the []int bucket codec makes the hash set runnable on
		// them, and the journaling tax belongs in the headline table.
		// Workloads whose payloads still have no codec (the linked-list and
		// skip-list node graphs) are skipped per-engine in runBench, so the
		// durable group has a smaller workload set than the in-memory one —
		// benchcheck's uniformity gate compares within durability groups.
		var names []string
		for _, info := range engine.Infos() {
			names = append(names, info.Name)
		}
		return names
	}
	parts := strings.Split(spec, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runBench(engines []string, opt engine.Options, workers int, duration, warmup time.Duration) ([]harness.Result, error) {
	if opt.Nodes == 0 {
		opt.Nodes = workers // the flag's 0 default means "match the worker count"
	}
	hopt := harness.Options{Workers: workers, Duration: duration, Warmup: warmup}
	var results []harness.Result
	run := 0
	for _, name := range engines {
		for _, w := range benchWorkloads() {
			wopt := opt
			if wopt.WALDir != "" {
				// A bench run measures a fresh store, never recovery: give
				// each engine × workload pair its own log directory so one
				// workload's WAL is not replayed into the next one's engine.
				wopt.WALDir = filepath.Join(opt.WALDir, fmt.Sprintf("bench-%03d", run))
			}
			run++
			eng, err := engine.New(name, wopt)
			if err != nil {
				return nil, err
			}
			r, err := harness.Run(eng, w, hopt)
			if errors.Is(err, durable.ErrUnsupportedPayload) {
				// Durable wrappers reject payloads without a codec at Write
				// time: the linked-list and skip-list workloads store node
				// structs holding cell handles, which no codec can rebind.
				// Skip those scenarios (loudly) rather than fail the run —
				// benchcheck's uniformity gate compares workload sets within
				// each durability group, so the durable engines just need to
				// skip consistently among themselves.
				fmt.Fprintf(os.Stderr, "lsabench: skipping %s on %s: %v\n", w.Name(), name, err)
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("harness: %s on %s: %w", w.Name(), name, err)
			}
			results = append(results, r)
		}
	}
	return results, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

func benchTable(results []harness.Result) *stats.Table {
	t := stats.NewTable("engine", "workload", "workers", "tx/s", "p50", "p99", "p999", "aborts/attempt", "abort mix", "allocs/commit", "B/commit", "boxed%", "fsync")
	for _, r := range results {
		// fsync = the durable wrappers' sync policy; "-" for in-memory
		// engines.
		fsync := "-"
		if r.Wal != nil {
			fsync = r.Wal.FsyncPolicy
		}
		p50, p99, p999 := "-", "-", "-"
		if r.Latency != nil {
			p50 = time.Duration(r.Latency.P50).String()
			p99 = time.Duration(r.Latency.P99).String()
			p999 = time.Duration(r.Latency.P999).String()
		}
		t.AddRowf(r.Engine, r.Workload, r.Workers,
			fmt.Sprintf("%.0f", r.Throughput),
			p50, p99, p999,
			fmt.Sprintf("%.4f", r.Stats.AbortRate()),
			r.Stats.AbortMix(),
			fmt.Sprintf("%.1f", r.AllocsPerCommit),
			fmt.Sprintf("%.0f", r.BytesPerCommit),
			fmt.Sprintf("%.1f", 100*r.Stats.BoxedShare()),
			fsync)
	}
	return t
}

// sweepTable renders scaling curves: one row per worker count of each
// engine × workload pair.
func sweepTable(results []harness.Result) *stats.Table {
	t := stats.NewTable("engine", "workload", "workers", "tx/s", "aborts/attempt", "p50", "p99", "p999")
	for _, r := range results {
		for _, p := range r.Scaling {
			t.AddRowf(r.Engine, r.Workload, p.Workers,
				fmt.Sprintf("%.0f", p.Throughput),
				fmt.Sprintf("%.4f", p.AbortRate),
				time.Duration(p.P50).String(),
				time.Duration(p.P99).String(),
				time.Duration(p.P999).String())
		}
	}
	return t
}

// latestResults backs the expvar "bench" variable: the most recent bench or
// sweep result set, readable at /debug/vars while -http is serving.
var latestResults atomic.Pointer[[]harness.Result]

func publishResults(results []harness.Result) {
	latestResults.Store(&results)
	diag.Publish("bench", func() any {
		if p := latestResults.Load(); p != nil {
			return *p
		}
		return nil
	})
}

func writeJSON(path string, results []harness.Result) error {
	host := harness.CurrentHost()
	data, err := json.MarshalIndent(harness.Snapshot{Host: &host, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func header(title string) {
	fmt.Printf("\n== %s ==\n\n", title)
}

func emit(t *stats.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t.String())
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("lsabench: bad integer list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsabench:", err)
	os.Exit(1)
}
