// Package stmserve is the transport-independent service layer that exposes
// transactional operations over any registered STM engine — the repository's
// "STM as a service" front end. It follows the same architectural split the
// engine layer uses between interface and backends: the Service here holds
// the transactional logic and the in-memory keyspace, testable without a
// single socket; the wire codecs (wire.go), the line-protocol server
// (server.go), the HTTP/JSON handler (http.go) and the load generator
// (load.go) are thin layers over it; and the cmd/stmserve and cmd/stmload
// shells only parse flags and wire listeners. A future durable backend slots
// in behind the same Service surface.
//
// The keyspace is fixed at construction: Config.Keys integer-indexed cells,
// each holding an int64 balance (initially Config.Initial), plus a parallel
// membership lane for the set operations. Every operation is one
// transaction on the configured engine, and int64 payloads ride the
// engines' unboxed value lane end to end — a transfer on a zero-allocation
// backend stays zero-allocation through the service layer (transaction
// closures are prebuilt per thread, not per request).
//
// Engine Threads are single-goroutine execution contexts and the engines'
// unit of reuse. The Service owns one set of them (executor.go), and every
// request runs on the calling goroutine with a Thread lent from that set.
// Config.Mode only sets how long a loan lasts, and cmd/stmload compares the
// two under load:
//
//   - ModeThread: a Session holds a Thread from open to Close and then hands
//     it to the next Session; thousands of concurrent connections mean
//     thousands of Threads. No queueing, no cross-connection interference,
//     but per-node time bases share clock registers modulo Options.Nodes and
//     per-thread engine state multiplies.
//   - ModePool: the set holds GOMAXPROCS Threads and each request borrows
//     one for its own run. Thread count (and engine-side state) stays fixed
//     no matter how many connections arrive, at the price of waiting for a
//     free Thread under load, which the per-op latency histograms show.
package stmserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/latency"
)

// Op identifies one service operation.
type Op uint8

// The service operations. OpPing, OpInfo, OpStats and OpPromote are control
// operations answered without a transaction; everything else runs as exactly
// one transaction on the backing engine.
const (
	OpInvalid Op = iota
	OpPing
	OpInfo
	OpStats
	OpPromote     // seal a standby's replication stream and start serving
	OpRead        // Key → Vals[0]
	OpWrite       // Key, Val
	OpTransfer    // Key (from), Key2 (to), Val (amount)
	OpSnapshot    // Keys → Vals (read-only consistent multi-read)
	OpBatchRead   // Keys → Vals (update-capable transaction)
	OpBatchWrite  // Keys, Vals (parallel arrays) written in one transaction
	OpCAS         // Key, Val (expected), Val2 (new) → Vals[0] = 1 if swapped
	OpSetAdd      // Key → Vals[0] = 1 if newly added
	OpSetRemove   // Key → Vals[0] = 1 if removed
	OpSetContains // Key → Vals[0] = 1 if member
	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid", OpPing: "ping", OpInfo: "info", OpStats: "stats",
	OpPromote: "promote",
	OpRead:    "read", OpWrite: "write", OpTransfer: "transfer",
	OpSnapshot: "snapshot", OpBatchRead: "batch-read", OpBatchWrite: "batch-write",
	OpCAS: "cas", OpSetAdd: "set-add", OpSetRemove: "set-remove",
	OpSetContains: "set-contains",
}

// String returns the operation's canonical name (the JSON form).
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MarshalText implements encoding.TextMarshaler (the HTTP/JSON form).
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (o *Op) UnmarshalText(b []byte) error {
	s := string(b)
	for op := OpPing; op < numOps; op++ {
		if opNames[op] == s {
			*o = op
			return nil
		}
	}
	return fmt.Errorf("stmserve: unknown op %q", s)
}

// Request is one decoded operation. The slices are reused across requests by
// the transports (ParseRequest truncates rather than reallocates), so
// handlers must not retain them past the response.
type Request struct {
	Op   Op      `json:"op"`
	Key  int     `json:"key,omitempty"`
	Key2 int     `json:"key2,omitempty"`
	Val  int64   `json:"val,omitempty"`
	Val2 int64   `json:"val2,omitempty"`
	Keys []int   `json:"keys,omitempty"`
	Vals []int64 `json:"vals,omitempty"`
}

// Response is one operation's outcome. Err is the op-level failure channel
// (transport errors travel as Go errors instead); Vals carries numeric
// results — single reads in Vals[0], predicate ops as 0/1 — and Text the
// INFO engine name or the STATS JSON payload.
type Response struct {
	Err  string  `json:"err,omitempty"`
	Text string  `json:"text,omitempty"`
	Vals []int64 `json:"vals,omitempty"`
}

// Reset clears the response for reuse, keeping the Vals capacity.
func (r *Response) Reset() {
	r.Err, r.Text, r.Vals = "", "", r.Vals[:0]
}

// Bool reads a predicate result (CAS, set ops): true iff Vals[0] == 1.
func (r *Response) Bool() bool { return len(r.Vals) > 0 && r.Vals[0] == 1 }

// Modes for Config.Mode.
const (
	// ModeThread lends each Session its own engine.Thread until Close.
	ModeThread = "thread"
	// ModePool lends each request one of GOMAXPROCS long-lived Threads.
	ModePool = "pool"
)

// Config parameterizes a Service. Zero values select the defaults.
type Config struct {
	// Keys is the keyspace size (cells created at construction). Default
	// 1024.
	Keys int `json:"keys"`
	// Initial is every key's starting balance. Transfers conserve the total
	// Keys×Initial, which the conformance suite audits through snapshots.
	// Default 1000.
	Initial int64 `json:"initial"`
	// Mode selects the connection→Thread mapping: ModeThread (default) or
	// ModePool.
	Mode string `json:"mode"`
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Initial == 0 {
		c.Initial = 1000
	}
	if c.Mode == "" {
		c.Mode = ModeThread
	}
	return c
}

// ErrClosed is returned by Session.Exec after the Service shut down or the
// Session was closed.
var ErrClosed = errors.New("stmserve: service closed")

// opMetrics is one operation's service-side telemetry: a latency histogram
// (in ModePool the wait for a Thread included — that is the point of the
// comparison) and completion counters. All fields are concurrency-safe.
type opMetrics struct {
	hist latency.Histogram
	ops  atomic.Uint64
	errs atomic.Uint64
}

// Service is the in-memory transactional service over one engine instance.
// Create Sessions (one per connection; each is single-goroutine like the
// Thread it may own) and Exec decoded Requests on them.
type Service struct {
	eng     engine.Engine
	cfg     Config
	vals    []engine.Cell // balances, initially cfg.Initial each
	members []engine.Cell // set-membership lane, initially 0
	threads threadSet
	metrics [numOps]opMetrics
	closed  atomic.Bool

	// Replication hooks, installed by the shell (cmd/stmserve) so this
	// package never imports internal/replica: promote seals a standby and
	// brings it up as serving primary (OpPromote), replStats feeds the STATS
	// replication block. Both are optional; a Service without them is simply
	// not part of a replication pair.
	promote   atomic.Pointer[func() error]
	replStats atomic.Pointer[func() *ReplStats]
}

// ReplStats is the replication block of a STATS snapshot — a role-tagged
// union of primary-side (followers, lag, resyncs, acks) and follower-side
// (applied watermark, reconnects, snapshot installs) telemetry. The shell
// that wires the replication layer installs a provider via SetReplStats.
type ReplStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// AppendedSeq is the local WAL high-water mark (both roles).
	AppendedSeq uint64 `json:"appended_seq"`

	// Primary-side fields.
	Followers   int    `json:"followers,omitempty"` // live streams
	MinAckedSeq uint64 `json:"min_acked_seq,omitempty"`
	LagSeqs     uint64 `json:"lag_seqs,omitempty"`  // appended − slowest ack
	LagBytes    int64  `json:"lag_bytes,omitempty"` // queued bytes, all streams
	Resyncs     uint64 `json:"resyncs,omitempty"`   // snapshot resyncs forced
	Accepts     uint64 `json:"accepts,omitempty"`   // follower streams accepted
	Disconnects uint64 `json:"disconnects,omitempty"`

	// Follower-side fields.
	Connected  bool   `json:"connected,omitempty"`
	Reconnects uint64 `json:"reconnects,omitempty"`
	Snapshots  uint64 `json:"snapshots,omitempty"` // snapshot installs
	Promoted   bool   `json:"promoted,omitempty"`
}

// SetPromote installs the hook OpPromote invokes (nil uninstalls). The shell
// that created a replication follower points this at its Promote method.
func (s *Service) SetPromote(fn func() error) {
	if fn == nil {
		s.promote.Store(nil)
		return
	}
	s.promote.Store(&fn)
}

// SetReplStats installs the provider for the STATS replication block (nil
// uninstalls).
func (s *Service) SetReplStats(fn func() *ReplStats) {
	if fn == nil {
		s.replStats.Store(nil)
		return
	}
	s.replStats.Store(&fn)
}

// New builds a Service over eng. The engine must be freshly constructed and
// unshared: the Service owns its threads and cells.
func New(eng engine.Engine, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("stmserve: Keys = %d, must be ≥ 1", cfg.Keys)
	}
	if cfg.Mode != ModeThread && cfg.Mode != ModePool {
		return nil, fmt.Errorf("stmserve: unknown mode %q (want %q or %q)", cfg.Mode, ModeThread, ModePool)
	}
	s := &Service{
		eng:     eng,
		cfg:     cfg,
		vals:    make([]engine.Cell, cfg.Keys),
		members: make([]engine.Cell, cfg.Keys),
	}
	for i := range s.vals {
		// int is the canonical unboxed-lane payload type (wordstm tags it
		// immediately); Get[int64] reads it back through the lane.
		s.vals[i] = eng.NewCell(int(cfg.Initial))
		s.members[i] = eng.NewCell(0)
	}
	limit := 0
	if cfg.Mode == ModePool {
		limit = runtime.GOMAXPROCS(0)
	}
	s.threads.init(s, limit)
	return s, nil
}

// Engine returns the backing engine.
func (s *Service) Engine() engine.Engine { return s.eng }

// Keys returns the keyspace size.
func (s *Service) Keys() int { return s.cfg.Keys }

// Mode returns the connection→Thread mapping in effect.
func (s *Service) Mode() string { return s.cfg.Mode }

// Close shuts the service down: subsequent Exec calls (and pool requests
// still waiting for a Thread) fail with ErrClosed. Close after every session
// is quiesced for a clean shutdown. When the engine is durable, the WAL is
// flushed and closed last — after the Thread set has stopped lending — so
// every acknowledged commit is on disk before Close returns.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.threads.close()
	if d, ok := s.eng.(engine.Durable); ok {
		return d.WALClose()
	}
	return nil
}

// Session is one connection's execution context. Like the engine Thread it
// may own, a Session must be driven by a single goroutine at a time.
type Session struct {
	svc    *Service
	ap     *applier // the Thread held until Close (ModeThread only)
	closed bool
}

// Session opens a connection context. In ModeThread it holds an
// engine.Thread until Close, a closed session's or else a new one; in
// ModePool it holds none, and each Exec borrows one.
func (s *Service) Session() *Session {
	ss := &Session{svc: s}
	if s.cfg.Mode == ModeThread {
		ss.ap, _ = s.threads.get() // fails only once s is closed, and so does Exec
	}
	return ss
}

// Close hands the session's Thread back; Exec then fails with ErrClosed.
// Closing twice is a no-op.
func (ss *Session) Close() {
	if ss.ap != nil {
		ss.svc.threads.put(ss.ap)
		ss.ap = nil
	}
	ss.closed = true
}

// Exec runs one request to completion, filling resp. Operation failures are
// reported both in resp.Err and as the returned error (they are the same
// failure; transports encode resp, programmatic callers branch on the
// error). Exec records the op's service-side latency and outcome counters.
func (ss *Session) Exec(req *Request, resp *Response) error {
	resp.Reset()
	svc := ss.svc
	if svc.closed.Load() || ss.closed {
		resp.Err = ErrClosed.Error()
		return ErrClosed
	}
	op := req.Op
	if op <= OpInvalid || op >= numOps {
		err := fmt.Errorf("stmserve: invalid op %d", op)
		resp.Err = err.Error()
		svc.metrics[OpInvalid].errs.Add(1)
		return err
	}
	start := time.Now()
	var err error
	switch op {
	case OpPing:
	case OpInfo:
		resp.Text = svc.eng.Name()
		resp.Vals = append(resp.Vals, int64(svc.cfg.Keys), svc.cfg.Initial)
	case OpStats:
		var data []byte
		if data, err = json.Marshal(svc.Stats()); err == nil {
			resp.Text = string(data)
		}
	case OpPromote:
		if fn := svc.promote.Load(); fn != nil {
			err = (*fn)()
		} else {
			err = errors.New("stmserve: not a standby (no promote hook installed)")
		}
	default:
		if ss.ap != nil {
			err = ss.ap.do(req, resp)
		} else {
			err = svc.threads.do(req, resp)
		}
	}
	m := &svc.metrics[op]
	m.hist.Record(time.Since(start))
	if err != nil {
		m.errs.Add(1)
		resp.Err = err.Error()
		return err
	}
	m.ops.Add(1)
	return nil
}

// OpStat is one operation's service-side telemetry snapshot.
type OpStat struct {
	Op      string           `json:"op"`
	Ops     uint64           `json:"ops"`
	Errs    uint64           `json:"errs,omitempty"`
	Latency *latency.Summary `json:"latency_ns,omitempty"`
}

// Stats is the service's observability snapshot: per-op counters and
// latency percentiles plus the engine's own counters (abort taxonomy
// included).
type Stats struct {
	Engine      string                 `json:"engine"`
	Mode        string                 `json:"mode"`
	Keys        int                    `json:"keys"`
	Ops         uint64                 `json:"ops"`
	Errs        uint64                 `json:"errs,omitempty"`
	PerOp       []OpStat               `json:"per_op,omitempty"`
	EngineStats engine.Stats           `json:"engine_stats"`
	Durability  *engine.DurabilityInfo `json:"durability,omitempty"`
	Replication *ReplStats             `json:"replication,omitempty"`
}

// Stats snapshots the service telemetry. The per-op counters and histograms
// are atomic and always exact; the embedded engine counters are the
// backends' deliberately unsynchronized per-thread tallies, exact only
// while no transactions run (end of run, after Shutdown) and approximate
// when sampled live.
func (s *Service) Stats() Stats {
	st := Stats{
		Engine:      s.eng.Name(),
		Mode:        s.cfg.Mode,
		Keys:        s.cfg.Keys,
		EngineStats: s.eng.Stats(),
	}
	if d, ok := s.eng.(engine.Durable); ok {
		info := d.DurabilityInfo()
		st.Durability = &info
	}
	if fn := s.replStats.Load(); fn != nil {
		st.Replication = (*fn)()
	}
	for op := OpInvalid; op < numOps; op++ {
		m := &s.metrics[op]
		ops, errs := m.ops.Load(), m.errs.Load()
		sum := m.hist.Load().Summary()
		if ops == 0 && errs == 0 {
			continue
		}
		st.Ops += ops
		st.Errs += errs
		st.PerOp = append(st.PerOp, OpStat{
			Op: op.String(), Ops: ops, Errs: errs, Latency: sum,
		})
	}
	return st
}

// applier owns one engine.Thread plus transaction closures prebuilt against
// its request/response slots — the same hoisted-closure idiom the workloads
// use, so a steady-state operation allocates nothing in the service layer
// and the engines' zero-allocation fast paths survive end to end.
type applier struct {
	svc  *Service
	th   engine.Thread
	req  *Request
	resp *Response

	read, write, transfer, snapshot, batchRead, batchWrite,
	cas, setAdd, setRemove, setContains func(engine.Txn) error
}

func newApplier(svc *Service, th engine.Thread) *applier {
	a := &applier{svc: svc, th: th}
	vals, members := svc.vals, svc.members
	// Aborted attempts are retried, re-running the closure — so every closure
	// that produces results truncates resp.Vals at attempt start; a retry
	// replaces the aborted attempt's output instead of appending to it.
	a.read = func(tx engine.Txn) error {
		v, err := engine.Get[int64](tx, vals[a.req.Key])
		if err != nil {
			return err
		}
		a.resp.Vals = append(a.resp.Vals[:0], v)
		return nil
	}
	a.write = func(tx engine.Txn) error {
		return engine.Set(tx, vals[a.req.Key], a.req.Val)
	}
	a.transfer = func(tx engine.Txn) error {
		from, to, amt := vals[a.req.Key], vals[a.req.Key2], a.req.Val
		fv, err := engine.Get[int64](tx, from)
		if err != nil {
			return err
		}
		tv, err := engine.Get[int64](tx, to)
		if err != nil {
			return err
		}
		if err := engine.Set(tx, from, fv-amt); err != nil {
			return err
		}
		return engine.Set(tx, to, tv+amt)
	}
	readKeys := func(tx engine.Txn) error {
		a.resp.Vals = a.resp.Vals[:0]
		for _, k := range a.req.Keys {
			v, err := engine.Get[int64](tx, vals[k])
			if err != nil {
				return err
			}
			a.resp.Vals = append(a.resp.Vals, v)
		}
		return nil
	}
	a.snapshot = readKeys
	a.batchRead = readKeys
	a.batchWrite = func(tx engine.Txn) error {
		for i, k := range a.req.Keys {
			if err := engine.Set(tx, vals[k], a.req.Vals[i]); err != nil {
				return err
			}
		}
		return nil
	}
	a.cas = func(tx engine.Txn) error {
		c := vals[a.req.Key]
		v, err := engine.Get[int64](tx, c)
		if err != nil {
			return err
		}
		if v != a.req.Val {
			a.resp.Vals = append(a.resp.Vals[:0], 0)
			return nil
		}
		if err := engine.Set(tx, c, a.req.Val2); err != nil {
			return err
		}
		a.resp.Vals = append(a.resp.Vals[:0], 1)
		return nil
	}
	member := func(tx engine.Txn, want, set int64) error {
		c := members[a.req.Key]
		v, err := engine.Get[int64](tx, c)
		if err != nil {
			return err
		}
		if v != want {
			a.resp.Vals = append(a.resp.Vals[:0], 0)
			return nil
		}
		if err := engine.Set(tx, c, set); err != nil {
			return err
		}
		a.resp.Vals = append(a.resp.Vals[:0], 1)
		return nil
	}
	a.setAdd = func(tx engine.Txn) error { return member(tx, 0, 1) }
	a.setRemove = func(tx engine.Txn) error { return member(tx, 1, 0) }
	a.setContains = func(tx engine.Txn) error {
		v, err := engine.Get[int64](tx, members[a.req.Key])
		if err != nil {
			return err
		}
		if v != 0 {
			a.resp.Vals = append(a.resp.Vals[:0], 1)
		} else {
			a.resp.Vals = append(a.resp.Vals[:0], 0)
		}
		return nil
	}
	return a
}

// checkKey validates a single key index against the keyspace.
func (a *applier) checkKey(k int) error {
	if k < 0 || k >= len(a.svc.vals) {
		return fmt.Errorf("stmserve: key %d out of range [0, %d)", k, len(a.svc.vals))
	}
	return nil
}

func (a *applier) checkKeys(ks []int) error {
	if len(ks) == 0 {
		return errors.New("stmserve: batch op without keys")
	}
	for _, k := range ks {
		if err := a.checkKey(k); err != nil {
			return err
		}
	}
	return nil
}

// do validates and executes one transactional request on the applier's
// Thread. It is the single dispatch point both modes share.
func (a *applier) do(req *Request, resp *Response) error {
	a.req, a.resp = req, resp
	defer func() { a.req, a.resp = nil, nil }()
	switch req.Op {
	case OpRead:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.RunReadOnly(a.read)
	case OpWrite:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.Run(a.write)
	case OpTransfer:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		if err := a.checkKey(req.Key2); err != nil {
			return err
		}
		if req.Key == req.Key2 {
			return fmt.Errorf("stmserve: transfer from key %d to itself", req.Key)
		}
		return a.th.Run(a.transfer)
	case OpSnapshot:
		if err := a.checkKeys(req.Keys); err != nil {
			return err
		}
		return a.th.RunReadOnly(a.snapshot)
	case OpBatchRead:
		if err := a.checkKeys(req.Keys); err != nil {
			return err
		}
		return a.th.Run(a.batchRead)
	case OpBatchWrite:
		if err := a.checkKeys(req.Keys); err != nil {
			return err
		}
		if len(req.Vals) != len(req.Keys) {
			return fmt.Errorf("stmserve: batch write with %d keys but %d values", len(req.Keys), len(req.Vals))
		}
		return a.th.Run(a.batchWrite)
	case OpCAS:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.Run(a.cas)
	case OpSetAdd:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.Run(a.setAdd)
	case OpSetRemove:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.Run(a.setRemove)
	case OpSetContains:
		if err := a.checkKey(req.Key); err != nil {
			return err
		}
		return a.th.RunReadOnly(a.setContains)
	default:
		return fmt.Errorf("stmserve: op %v is not transactional", req.Op)
	}
}
