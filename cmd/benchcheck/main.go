// Command benchcheck is the CI bench-smoke gate: it validates a JSON bench
// snapshot produced by `lsabench -experiment bench -json`. The conformance
// suite proves every engine correct under bounded iteration counts; what it
// never exercises is the measured-interval path of the full matrix, where a
// backend can wedge silently — workers spinning without a single commit —
// and still exit zero. benchcheck fails loudly instead:
//
//	go run ./cmd/lsabench -experiment bench -duration 60ms -json /tmp/smoke.json
//	go run ./cmd/benchcheck /tmp/smoke.json
//
// Checks, in order: the file parses as a harness.Snapshot ({"host",
// "results"} with a validated host header); every record is well-formed and
// shows nonzero commits (harness.Result.Validate) and carries a latency_ns
// block (whose bucket counts sum to the record's committed transactions);
// every registered engine appears (so a backend dropped from the matrix —
// or an init that forgot Register on the bench binary's import graph —
// fails here too); every engine ran the same workload set as the rest of
// its durability group —
// the durable wrappers skip workloads whose payloads have no registered
// codec, so they are compared among themselves, and their set must also be
// a subset of the in-memory reference set. Durability telemetry ("wal" with
// its fsync policy) is accepted per record but never required; a wal block
// with a policy outside the -fsync domain is rejected.
// -require-engines can relax the registry comparison to an explicit list.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/harness"

	// Register the durable/* wrappers: since the bucket codec made the
	// default bench matrix include them, the default required set is the
	// whole registry.
	_ "repro/internal/durable"
)

func main() {
	requireEngines := flag.String("require-engines", "", "comma-separated engine names that must appear (default: every registered engine)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchcheck [-require-engines a,b] <bench.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var required []string
	for _, info := range engine.Infos() {
		required = append(required, info.Name)
	}
	if *requireEngines != "" {
		required = nil
		for _, n := range strings.Split(*requireEngines, ",") {
			if n = strings.TrimSpace(n); n != "" {
				required = append(required, n)
			}
		}
	}
	if errs := check(data, required); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchcheck:", e)
		}
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %d problem(s)\n", flag.Arg(0), len(errs))
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %s ok (%d engines)\n", flag.Arg(0), len(required))
}

// check validates the snapshot bytes against the required engine set and
// returns every problem found (not just the first: a wedged engine and a
// missing one should both show up in the same CI run).
func check(data []byte, requiredEngines []string) []error {
	snap, err := harness.ParseSnapshot(data)
	if err != nil {
		return []error{err}
	}
	results := snap.Results
	if len(results) == 0 {
		return []error{fmt.Errorf("snapshot holds no records")}
	}
	var errs []error
	workloadsByEngine := map[string]map[string]bool{}
	sawAllocTelemetry := false
	for i, r := range results {
		if err := r.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("record %d: %w", i, err))
			continue
		}
		if r.AllocsPerCommit > 0 {
			sawAllocTelemetry = true
		}
		if r.Latency == nil {
			// The harness attaches latency to every record it produces.
			errs = append(errs, fmt.Errorf("record %d: %s/%s lacks the latency_ns block", i, r.Workload, r.Engine))
		}
		wl := workloadsByEngine[r.Engine]
		if wl == nil {
			wl = map[string]bool{}
			workloadsByEngine[r.Engine] = wl
		}
		if wl[r.Workload] {
			errs = append(errs, fmt.Errorf("record %d: duplicate %s/%s", i, r.Workload, r.Engine))
		}
		wl[r.Workload] = true
	}
	// Individual records may legitimately carry zero allocs/commit (the
	// unboxed value lane), but a snapshot where NO record allocates was
	// regenerated by a pre-telemetry binary: the LSA engines allocate at
	// least their per-attempt Tx on every update commit by design.
	if !sawAllocTelemetry {
		errs = append(errs, fmt.Errorf("no record carries alloc telemetry (snapshot from a pre-telemetry binary?)"))
	}
	for _, name := range requiredEngines {
		if len(workloadsByEngine[name]) == 0 {
			errs = append(errs, fmt.Errorf("engine %q missing from the snapshot", name))
		}
	}
	// Every engine must have run the same scenario set as the rest of its
	// durability group: a per-engine init failure that silently skips
	// workloads would otherwise pass. The durable wrappers legitimately
	// skip workloads whose payloads have no codec, so they form their own
	// group — but that group's set must still be a subset of the in-memory
	// reference (a durable-only workload would mean the in-memory engines
	// silently dropped it).
	refName := map[bool]string{}
	refSet := map[bool]map[string]bool{}
	for _, name := range slices.Sorted(maps.Keys(workloadsByEngine)) {
		wl := workloadsByEngine[name]
		g := isDurableEngine(name)
		if refSet[g] == nil {
			refName[g], refSet[g] = name, wl
			continue
		}
		if !maps.Equal(wl, refSet[g]) {
			errs = append(errs, fmt.Errorf("engine %q ran workloads %v, but %q ran %v",
				name, slices.Sorted(maps.Keys(wl)), refName[g], slices.Sorted(maps.Keys(refSet[g]))))
		}
	}
	if durableRef, memRef := refSet[true], refSet[false]; durableRef != nil && memRef != nil {
		for _, w := range slices.Sorted(maps.Keys(durableRef)) {
			if !memRef[w] {
				errs = append(errs, fmt.Errorf("durable engines ran workload %q that the in-memory set (%q) lacks",
					w, refName[false]))
			}
		}
	}
	return errs
}

// isDurableEngine classifies an engine name into its durability group, by
// registry capability when the name is registered and by the "durable/"
// prefix for snapshots from binaries with a different registry.
func isDurableEngine(name string) bool {
	if info, ok := engine.Describe(name); ok {
		return info.Capabilities.Durable
	}
	return strings.HasPrefix(name, "durable/")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
