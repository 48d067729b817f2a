package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/latency"
)

// record builds a healthy record with a consistent latency block: all
// commits in the 8192ns bucket (bucket 13), so count ties out against Txs.
func record(eng, wl string, commits uint64) harness.Result {
	buckets := make([]uint64, 14)
	buckets[13] = commits
	return harness.Result{
		Workload:        wl,
		Engine:          eng,
		Workers:         4,
		Elapsed:         50 * time.Millisecond,
		Txs:             commits,
		Throughput:      float64(commits) / 0.05,
		AllocsPerCommit: 12.5,
		BytesPerCommit:  800,
		Stats:           engine.Stats{Commits: commits},
		Latency: &latency.Summary{
			Count: commits, Buckets: buckets,
			P50: 16383, P99: 16383, P999: 16383,
		},
	}
}

// rawSnapshot wraps hand-written record JSON in a host-stamped snapshot.
// rawLatency is the latency block matching a 100-commit record.
func rawSnapshot(records string) []byte {
	return []byte(`{"host":{"num_cpu":2,"gomaxprocs":2},"results":[` + records + `]}`)
}

const rawLatency = `"latency_ns":{"count":100,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,100],` +
	`"p50_ns":16383,"p99_ns":16383,"p999_ns":16383}`

func marshal(t *testing.T, rs []harness.Result) []byte {
	t.Helper()
	data, err := json.Marshal(harness.Snapshot{Host: &harness.HostInfo{NumCPU: 2, GOMAXPROCS: 2}, Results: rs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckAcceptsHealthySnapshot(t *testing.T) {
	rs := []harness.Result{
		record("tl2", "bank/64", 100), record("tl2", "intset/128", 90),
		record("lsa/shared", "bank/64", 80), record("lsa/shared", "intset/128", 70),
	}
	if errs := check(marshal(t, rs), []string{"tl2", "lsa/shared"}); len(errs) != 0 {
		t.Fatalf("healthy snapshot rejected: %v", errs)
	}
}

func TestCheckRejectsMalformedJSON(t *testing.T) {
	if errs := check([]byte("{not json"), nil); len(errs) != 1 {
		t.Fatalf("malformed JSON: got %v", errs)
	}
	if errs := check(rawSnapshot(""), nil); len(errs) != 1 || !strings.Contains(errs[0].Error(), "no records") {
		t.Fatalf("empty snapshot: got %v", errs)
	}
}

func TestCheckRejectsZeroCommits(t *testing.T) {
	rs := []harness.Result{record("tl2", "bank/64", 100), record("glock", "bank/64", 0)}
	errs := check(marshal(t, rs), []string{"tl2", "glock"})
	joined := errsString(errs)
	if !strings.Contains(joined, "zero commits") {
		t.Fatalf("wedged engine not reported: %v", errs)
	}
	// The zero-commit record is invalid, so glock must also count as missing.
	if !strings.Contains(joined, `engine "glock" missing`) {
		t.Fatalf("invalid record still satisfied the engine requirement: %v", errs)
	}
}

// TestCheckRejectsMissingAllocTelemetry pins the snapshot-format ratchet: a
// snapshot in which NO record carries the allocs/bytes-per-commit fields
// (e.g. regenerated with a pre-telemetry lsabench, or hand-stripped) must
// fail the gate, so the checked-in BENCH_engines.json can never silently
// lose its GC-pressure axis. Individual zero-allocation records are fine —
// the unboxed value lane produces them legitimately — so the check is
// snapshot-level: somewhere the LSA engines must show their per-attempt Tx.
func TestCheckRejectsMissingAllocTelemetry(t *testing.T) {
	r := record("tl2", "bank/64", 100)
	r.AllocsPerCommit = 0
	r.BytesPerCommit = 0
	errs := check(marshal(t, []harness.Result{r}), []string{"tl2"})
	if !strings.Contains(errsString(errs), "no record carries alloc telemetry") {
		t.Fatalf("alloc-less snapshot not reported: %v", errs)
	}
	// The same zero-allocation record next to a normally allocating one
	// passes: telemetry is present in the snapshot.
	rs := []harness.Result{r, record("tl2", "intset/128", 90)}
	if errs := check(marshal(t, rs), []string{"tl2"}); len(errs) != 0 {
		t.Fatalf("zero-allocation record rejected: %v", errs)
	}
}

func TestCheckRejectsMissingEngine(t *testing.T) {
	rs := []harness.Result{record("tl2", "bank/64", 10)}
	errs := check(marshal(t, rs), []string{"tl2", "norec"})
	if !strings.Contains(errsString(errs), `engine "norec" missing`) {
		t.Fatalf("missing engine not reported: %v", errs)
	}
}

func TestCheckRejectsUnevenWorkloadSets(t *testing.T) {
	rs := []harness.Result{
		record("tl2", "bank/64", 10), record("tl2", "intset/128", 10),
		record("glock", "bank/64", 10),
	}
	errs := check(marshal(t, rs), []string{"tl2", "glock"})
	if !strings.Contains(errsString(errs), "ran workloads") {
		t.Fatalf("uneven workload sets not reported: %v", errs)
	}
}

func TestCheckRejectsDuplicates(t *testing.T) {
	rs := []harness.Result{record("tl2", "bank/64", 10), record("tl2", "bank/64", 12)}
	errs := check(marshal(t, rs), []string{"tl2"})
	if !strings.Contains(errsString(errs), "duplicate") {
		t.Fatalf("duplicate record not reported: %v", errs)
	}
}

// TestCheckAgainstRealBenchRun drives the actual bench pipeline end to end
// on two engines with a tiny interval — the same path the CI bench-smoke
// job gates, minus the full registry sweep.
func TestCheckAgainstRealBenchRun(t *testing.T) {
	if testing.Short() {
		t.Skip("measured-interval run")
	}
	var results []harness.Result
	for _, name := range []string{"tl2", "lsa/extsync"} {
		for _, mk := range []func() harness.Workload{
			func() harness.Workload { return &benchBank{} },
		} {
			eng := engine.MustNew(name, engine.Options{Nodes: 2})
			r, err := harness.Run(eng, mk(), harness.Options{Workers: 2, Duration: 30 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	if errs := check(marshal(t, results), []string{"tl2", "lsa/extsync"}); len(errs) != 0 {
		t.Fatalf("real bench run rejected: %v", errs)
	}
}

// benchBank is a minimal in-test workload: one hot counter cell.
type benchBank struct{ c engine.Cell }

func (b *benchBank) Name() string { return "counter" }
func (b *benchBank) Init(eng engine.Engine, workers int) error {
	b.c = eng.NewCell(0)
	return nil
}
func (b *benchBank) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	return func() error {
		return th.Run(func(tx engine.Txn) error {
			return engine.Update(tx, b.c, func(v int) int { return v + 1 })
		})
	}
}

func errsString(errs []error) string {
	var sb strings.Builder
	for _, e := range errs {
		sb.WriteString(e.Error())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestCheckSnapshotHostHeader pins the snapshot-header rules: a snapshot
// must carry a valid host record; one with a missing or implausible host
// fails the gate, and so does the bare result array that predates the
// header.
func TestCheckSnapshotHostHeader(t *testing.T) {
	rs := []harness.Result{record("tl2", "bank/64", 100)}
	wrap := func(host *harness.HostInfo) []byte {
		t.Helper()
		data, err := json.Marshal(harness.Snapshot{Host: host, Results: rs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if errs := check(wrap(&harness.HostInfo{NumCPU: 8, GOMAXPROCS: 8}), []string{"tl2"}); len(errs) != 0 {
		t.Fatalf("headered snapshot rejected: %v", errs)
	}
	if errs := check(wrap(nil), []string{"tl2"}); len(errs) != 1 ||
		!strings.Contains(errs[0].Error(), "host") {
		t.Fatalf("hostless object snapshot not rejected: %v", errs)
	}
	if errs := check(wrap(&harness.HostInfo{NumCPU: 0, GOMAXPROCS: 4}), []string{"tl2"}); len(errs) != 1 ||
		!strings.Contains(errs[0].Error(), "CPUs") {
		t.Fatalf("implausible host record not rejected: %v", errs)
	}
	bare, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if errs := check(bare, []string{"tl2"}); len(errs) != 1 ||
		!strings.Contains(errs[0].Error(), "malformed snapshot") {
		t.Fatalf("bare result array not rejected: %v", errs)
	}
}

// TestCheckAcceptsSnapshotWithoutBoxedCounters pins the compatibility rule
// for the boxed% telemetry: Stats.BoxedCommits is reported by the engines
// since the typed value lane, but a snapshot written before it (no
// boxed_commits field anywhere) must keep parsing and validating — the gate
// accepts the field without requiring it.
func TestCheckAcceptsSnapshotWithoutBoxedCounters(t *testing.T) {
	raw := rawSnapshot(`{"workload":"bank/64","engine":"tl2","workers":4,` +
		`"elapsed_ns":50000000,"txs":100,"tx_per_s":2000,` +
		`"allocs_per_commit":12.5,"bytes_per_commit":800,` +
		`"stats":{"commits":100,"aborts":3},` + rawLatency + `}`)
	if errs := check(raw, []string{"tl2"}); len(errs) != 0 {
		t.Fatalf("pre-boxed-counter snapshot rejected: %v", errs)
	}
}

// TestCheckLatencyAllOrNone pins the latency-telemetry gate. The harness
// attaches a latency_ns block to everything it produces, so every record
// must carry one: a record without it was spliced in from another binary or
// stripped by hand, and an entirely latency-free snapshot — once tolerated
// as a legacy artifact — is rejected record by record.
func TestCheckLatencyAllOrNone(t *testing.T) {
	bare := func(eng, wl string, commits uint64) harness.Result {
		r := record(eng, wl, commits)
		r.Latency = nil
		return r
	}
	all := []harness.Result{record("tl2", "bank/64", 100), record("tl2", "intset/128", 90)}
	if errs := check(marshal(t, all), []string{"tl2"}); len(errs) != 0 {
		t.Fatalf("all-latency snapshot rejected: %v", errs)
	}
	none := []harness.Result{bare("tl2", "bank/64", 100), bare("tl2", "intset/128", 90)}
	if errs := check(marshal(t, none), []string{"tl2"}); len(errs) != 2 ||
		!strings.Contains(errsString(errs), "lacks the latency_ns block") {
		t.Fatalf("latency-free snapshot: got %v, want both records reported", errs)
	}
	mixed := []harness.Result{record("tl2", "bank/64", 100), bare("tl2", "intset/128", 90)}
	errs := check(marshal(t, mixed), []string{"tl2"})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "record 1: intset/128/tl2 lacks the latency_ns block") {
		t.Fatalf("latency-less record not reported: %v", errs)
	}
}

// TestCheckWalTelemetry pins the durability-telemetry compatibility rule:
// a record measured on a durable engine carries a wal block with its fsync
// policy — accepted next to plain records (snapshots may mix durable and
// in-memory engines), never required, but rejected when the policy is
// outside the engine.Options -fsync domain (a stripped or hand-edited
// field).
func TestCheckWalTelemetry(t *testing.T) {
	walRecord := func(policy string) harness.Result {
		r := record("durable/norec", "bank/64", 50)
		r.Wal = &harness.WalInfo{FsyncPolicy: policy}
		return r
	}
	for _, policy := range []string{"always", "group", "never"} {
		rs := []harness.Result{record("tl2", "bank/64", 100), walRecord(policy)}
		if errs := check(marshal(t, rs), []string{"tl2", "durable/norec"}); len(errs) != 0 {
			t.Fatalf("wal record with fsync=%s rejected: %v", policy, errs)
		}
	}
	rs := []harness.Result{walRecord("sometimes")}
	errs := check(marshal(t, rs), []string{"durable/norec"})
	if !strings.Contains(errsString(errs), "fsync policy") {
		t.Fatalf("malformed fsync policy not reported: %v", errs)
	}
	// A wal block with an empty policy is equally malformed — the harness
	// always copies the engine's resolved policy, never an empty string.
	raw := rawSnapshot(`{"workload":"bank/64","engine":"durable/norec","workers":4,` +
		`"elapsed_ns":50000000,"txs":100,"tx_per_s":2000,` +
		`"allocs_per_commit":12.5,"bytes_per_commit":800,` +
		`"stats":{"commits":100},"wal":{"fsyncs":3},` + rawLatency + `}`)
	errs = check(raw, []string{"durable/norec"})
	if !strings.Contains(errsString(errs), "fsync policy") {
		t.Fatalf("policy-less wal block not reported: %v", errs)
	}
}

// TestCheckRejectsInconsistentLatency: a latency block whose bucket counts
// do not sum to the record's committed transactions is a stripped or edited
// record (the harness derives Txs and the histogram from the same probes).
func TestCheckRejectsInconsistentLatency(t *testing.T) {
	r := record("tl2", "bank/64", 100)
	r.Latency.Count = 99
	r.Latency.Buckets[13] = 99
	errs := check(marshal(t, []harness.Result{r}), []string{"tl2"})
	if !strings.Contains(errsString(errs), "latency count") {
		t.Fatalf("latency/txs mismatch not reported: %v", errs)
	}
	r = record("tl2", "bank/64", 100)
	r.Latency.P99 = 1 // below the recomputed quantile
	errs = check(marshal(t, []harness.Result{r}), []string{"tl2"})
	if !strings.Contains(errsString(errs), "latency") {
		t.Fatalf("tampered percentile not reported: %v", errs)
	}
}
