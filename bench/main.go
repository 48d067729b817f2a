// Command bench is the repository's benchmark: four long-run workloads, five
// end-to-end metrics measured the same way on each, and an outside-in layer
// trace. See README.md in this directory for the protocol and the reasons
// behind it, and BENCHMARK.json at the repository root for the contract.
// Run it from the repository root:
//
//	bench -workload <name> -seed <n> [-seconds <n>] [-trace 0|1]
//	bench -aa            # A/A self-check over every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mem_disjoint, mem_bank, serve_tcp or durable_group")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 0, "seconds measured (default: run_seconds of the manifest)")
	trace := fs.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
	traceFile := fs.String("tracefile", "", "where the traced run writes its spans (default <scratch>/trace-<workload>.json)")
	scratchRoot := fs.String("scratch", ".bench_build", "directory for WAL files and trace output")
	aa := fs.Bool("aa", false, "run the A/A self-check over every workload and print it as markdown")
	manifestPath := fs.String("manifest", "BENCHMARK.json", "the benchmark's contract: metric names, units, bounds, run_seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := loadManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = man.RunSeconds
	}
	if runtime.GOMAXPROCS(0) < numWorkers {
		fmt.Fprintf(stderr, "bench: warning: GOMAXPROCS = %d < %d workers; the workers will time-share a CPU\n",
			runtime.GOMAXPROCS(0), numWorkers)
	}
	if *aa {
		return runAA(man, *seed, *seconds, *scratchRoot, stdout, stderr)
	}
	sp, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}

	// Everything the run writes lives under one directory of its own.
	scratch := filepath.Join(*scratchRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	st := newStamp(sp.name, *seed, scratch)
	if sp.wal && st.WALFilesystem != "tmpfs" {
		fmt.Fprintf(stderr, "bench: warning: the WAL is on %s, not tmpfs; the device's fsync is in the timings\n", st.WALFilesystem)
	}
	var res result
	var ungated metrics
	if *trace == 0 {
		if res, ungated, err = runEndToEnd(sp, *seed, *seconds, scratch, &st); res.Metrics != nil {
			if cerr := checkMetrics(res.Metrics, man.EndToEnd); cerr != nil {
				res.Correct, err = false, cerr
			}
		}
	} else {
		if *traceFile == "" {
			*traceFile = filepath.Join(*scratchRoot, "trace-"+sp.name+".json")
		}
		res, err = runTraced(sp, man, *seed, *seconds, scratch, *traceFile, &st)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if res.Metrics == nil {
			return 1
		}
		res.Correct = false
	}
	printResult(stdout, sp, st, res, ungated)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes every metric by name with its unit, the host stamp,
// and the one-line JSON result the contract asks for last. ungated are the
// timing metrics of an untraced run: printed, and given to the A/A check on
// a line of their own, but not part of the result the driver gates on.
func printResult(w io.Writer, sp spec, st stamp, res result, ungated metrics) {
	fmt.Fprintf(w, "workload %s — %s\nprimary op: %s\n", sp.name, sp.why, sp.primary)
	for _, m := range []metrics{res.Metrics, ungated} {
		for _, name := range sortedNames(m) {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, v := range []any{
		struct {
			Ungated metrics `json:"ungated"`
		}{ungated},
		struct {
			Stamp stamp `json:"stamp"`
		}{st},
		res,
	} {
		line, _ := json.Marshal(v)
		fmt.Fprintf(w, "%s\n", line)
	}
}
