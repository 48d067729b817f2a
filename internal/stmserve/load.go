package stmserve

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/latency"
	"repro/internal/stats"
)

// The load generator: drive a service — over the wire or in-process — from
// many concurrent connections with a zipfian key distribution, and report
// throughput plus per-op client-side latency percentiles. cmd/stmload is a
// flag shell over RunLoad; the Caller/Dialer abstraction is what lets the
// same loop hammer a TCP server and an in-proc Service (and lets tests run
// the whole generator without sockets).

// Caller issues requests for one connection. Single-goroutine, like Client
// and Session.
type Caller interface {
	// Do executes one request. Transport failures are the error; op-level
	// failures land in resp.Err.
	Do(req *Request, resp *Response) error
	Close() error
}

// Dialer opens one load connection.
type Dialer func() (Caller, error)

// NetDialer dials the line-protocol server at addr for each connection.
func NetDialer(addr string) Dialer {
	return func() (Caller, error) { return Dial(addr) }
}

// ServiceDialer issues requests directly against svc — the in-process mode
// that isolates service+engine cost from the network stack.
func ServiceDialer(svc *Service) Dialer {
	return func() (Caller, error) { return &sessionCaller{sess: svc.Session()}, nil }
}

type sessionCaller struct {
	sess *Session
}

func (c *sessionCaller) Do(req *Request, resp *Response) error {
	c.sess.Exec(req, resp) // op-level failure is already in resp.Err
	return nil
}

func (c *sessionCaller) Close() error {
	c.sess.Close()
	return nil
}

// Mix weighs the generated operations. Weights are relative (they need not
// sum to 100); zero-weight ops are never issued.
type Mix struct {
	Transfer   int
	Read       int
	Write      int
	Snapshot   int
	BatchRead  int
	BatchWrite int
	CAS        int
	SetOps     int // split evenly across add/remove/contains
}

// DefaultMix is a bank-style blend: transfer-dominated, with enough reads,
// snapshots and batch traffic to exercise every code path.
var DefaultMix = Mix{
	Transfer: 40, Read: 20, Write: 5, Snapshot: 10,
	BatchRead: 5, BatchWrite: 5, CAS: 10, SetOps: 5,
}

// ParseMix parses "transfer=40,read=20,snapshot=10,..." (keys are the Op
// names plus "set" for the set-op bundle; omitted keys weigh zero).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("stmserve: mix entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("stmserve: mix weight %q is not a non-negative integer", val)
		}
		switch name {
		case "transfer":
			m.Transfer = w
		case "read":
			m.Read = w
		case "write":
			m.Write = w
		case "snapshot":
			m.Snapshot = w
		case "batch-read":
			m.BatchRead = w
		case "batch-write":
			m.BatchWrite = w
		case "cas":
			m.CAS = w
		case "set":
			m.SetOps = w
		default:
			return m, fmt.Errorf("stmserve: unknown mix op %q", name)
		}
	}
	if m == (Mix{}) {
		return m, fmt.Errorf("stmserve: mix %q has no positive weights", s)
	}
	return m, nil
}

// mixTable expands the weights into a cumulative (op, bound) ladder for
// O(#ops) weighted sampling. Set ops split across the three verbs.
type mixEntry struct {
	op    Op
	bound int
}

func (m Mix) table() ([]mixEntry, int, error) {
	weights := []struct {
		op Op
		w  int
	}{
		{OpTransfer, m.Transfer}, {OpRead, m.Read}, {OpWrite, m.Write},
		{OpSnapshot, m.Snapshot}, {OpBatchRead, m.BatchRead},
		{OpBatchWrite, m.BatchWrite}, {OpCAS, m.CAS},
		{OpSetAdd, m.SetOps}, {OpSetRemove, m.SetOps}, {OpSetContains, m.SetOps},
	}
	var entries []mixEntry
	total := 0
	for _, e := range weights {
		if e.w <= 0 {
			continue
		}
		total += e.w
		entries = append(entries, mixEntry{e.op, total})
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("stmserve: operation mix has no positive weights")
	}
	return entries, total, nil
}

// LoadOptions parameterizes RunLoad. Zero values select the defaults.
type LoadOptions struct {
	// Conns is the number of concurrent connections (default 64). Each is
	// one goroutine driving one Caller in a closed loop.
	Conns int
	// Duration is the measured run length (default 5s).
	Duration time.Duration
	// Keys is the target keyspace size. 0 asks the server via INFO.
	Keys int
	// BatchKeys sizes snapshot/batch requests (default 8, clamped to Keys).
	BatchKeys int
	// ZipfS and ZipfV shape the zipfian key distribution (defaults 1.2 and
	// 1; s must be > 1, v ≥ 1 — rand.NewZipf's domain).
	ZipfS, ZipfV float64
	// Mix weighs the operations (default DefaultMix).
	Mix Mix
	// Seed makes runs reproducible; 0 derives per-connection seeds from 1.
	Seed int64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Conns <= 0 {
		o.Conns = 64
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.BatchKeys <= 0 {
		o.BatchKeys = 8
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.2
	}
	if o.ZipfV == 0 {
		o.ZipfV = 1
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// OpReport is one operation's client-side outcome: completed calls, op-level
// errors, and the end-to-end latency distribution (queueing, wire and
// service included — this is what the connection saw).
type OpReport struct {
	Op      string           `json:"op"`
	Ops     uint64           `json:"ops"`
	Errs    uint64           `json:"errs,omitempty"`
	Latency *latency.Summary `json:"latency_ns,omitempty"`
}

// LoadReport is a load run's result.
type LoadReport struct {
	Conns      int           `json:"conns"`
	Duration   time.Duration `json:"duration_ns"`
	Keys       int           `json:"keys"`
	Ops        uint64        `json:"ops"`
	Errs       uint64        `json:"errs,omitempty"`
	DialErrs   uint64        `json:"dial_errs,omitempty"`
	Throughput float64       `json:"ops_per_sec"`
	PerOp      []OpReport    `json:"per_op,omitempty"`
}

// Table renders the per-op latency breakdown.
func (r *LoadReport) Table() string {
	t := stats.NewTable("op", "ops", "errs", "p50", "p99", "p999")
	for _, op := range r.PerOp {
		p50, p99, p999 := "-", "-", "-"
		if s := op.Latency; s != nil {
			p50 = time.Duration(s.P50).String()
			p99 = time.Duration(s.P99).String()
			p999 = time.Duration(s.P999).String()
		}
		t.AddRowf(op.Op, op.Ops, op.Errs, p50, p99, p999)
	}
	t.AddRowf("total", r.Ops, r.Errs, "", "", "")
	return t.String()
}

// RunLoad drives dial-per-connection closed-loop load for opts.Duration and
// reports what the clients observed. It returns an error only when setup
// fails outright (no connection could be established, unusable options);
// per-call failures are counted in the report instead.
func RunLoad(dial Dialer, opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	if opts.ZipfS <= 1 || opts.ZipfV < 1 {
		return nil, fmt.Errorf("stmserve: zipf parameters s=%v v=%v out of range (need s > 1, v ≥ 1)", opts.ZipfS, opts.ZipfV)
	}
	entries, total, err := opts.Mix.table()
	if err != nil {
		return nil, err
	}

	keys := opts.Keys
	if keys == 0 {
		c, err := dial()
		if err != nil {
			return nil, fmt.Errorf("stmserve: load dial: %w", err)
		}
		keys, _, err = infoCall(c)
		c.Close()
		if err != nil {
			return nil, err
		}
	}
	if keys < 2 {
		return nil, fmt.Errorf("stmserve: keyspace of %d keys is too small to load (need ≥ 2)", keys)
	}
	batch := opts.BatchKeys
	if batch > keys {
		batch = keys
	}

	// Shared per-op telemetry: atomic histograms and counters, recorded by
	// every connection, merged by address.
	var hists [numOps]latency.Histogram
	var ops, errs [numOps]atomic.Uint64
	var dialErrs atomic.Uint64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < opts.Conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dial()
			if err != nil {
				dialErrs.Add(1)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)))
			zipf := rand.NewZipf(rng, opts.ZipfS, opts.ZipfV, uint64(keys-1))
			key := func() int { return int(zipf.Uint64()) }
			req := Request{Keys: make([]int, 0, batch), Vals: make([]int64, 0, batch)}
			var resp Response
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := rng.Intn(total)
				var op Op
				for _, e := range entries {
					if n < e.bound {
						op = e.op
						break
					}
				}
				req.Op = op
				req.Keys, req.Vals = req.Keys[:0], req.Vals[:0]
				switch op {
				case OpTransfer:
					k := key()
					req.Key = k
					req.Key2 = (k + 1 + rng.Intn(keys-1)) % keys
					req.Val = int64(rng.Intn(10))
				case OpRead, OpSetAdd, OpSetRemove, OpSetContains:
					req.Key = key()
				case OpWrite:
					req.Key = key()
					req.Val = int64(rng.Intn(1000))
				case OpCAS:
					req.Key = key()
					req.Val = int64(rng.Intn(1000))
					req.Val2 = int64(rng.Intn(1000))
				case OpSnapshot, OpBatchRead:
					for j := 0; j < batch; j++ {
						req.Keys = append(req.Keys, key())
					}
				case OpBatchWrite:
					// Distinct keys keep the written values well-defined;
					// a fixed stride window is cheap and good enough.
					base := key()
					for j := 0; j < batch; j++ {
						req.Keys = append(req.Keys, (base+j)%keys)
						req.Vals = append(req.Vals, int64(rng.Intn(1000)))
					}
				}
				start := time.Now()
				if err := c.Do(&req, &resp); err != nil {
					// Transport failure: likely server shutdown; this
					// connection is done.
					errs[op].Add(1)
					return
				}
				hists[op].Record(time.Since(start))
				if resp.Err != "" {
					errs[op].Add(1)
				} else {
					ops[op].Add(1)
				}
			}
		}(i)
	}

	timer := time.NewTimer(opts.Duration)
	<-timer.C
	close(stop)
	wg.Wait()

	rep := &LoadReport{Conns: opts.Conns, Duration: opts.Duration, Keys: keys, DialErrs: dialErrs.Load()}
	for op := OpPing; op < numOps; op++ {
		o, e := ops[op].Load(), errs[op].Load()
		if o == 0 && e == 0 {
			continue
		}
		rep.Ops += o
		rep.Errs += e
		rep.PerOp = append(rep.PerOp, OpReport{
			Op: op.String(), Ops: o, Errs: e, Latency: hists[op].Load().Summary(),
		})
	}
	sort.Slice(rep.PerOp, func(i, j int) bool { return rep.PerOp[i].Ops > rep.PerOp[j].Ops })
	rep.Throughput = float64(rep.Ops) / opts.Duration.Seconds()
	if rep.DialErrs == uint64(opts.Conns) {
		return rep, fmt.Errorf("stmserve: all %d load connections failed to dial", opts.Conns)
	}
	return rep, nil
}
