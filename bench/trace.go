package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// The outside-in layer trace. Nothing outside bench/ is instrumented: spans
// are recorded by decorators the benchmark inserts at interface seams — the
// driver's own op loop, a tracedEngine around an engine.Engine, and a
// tracedConn from a wrapped net.Listener.
//
// The driver is the single source of sampling decisions. Before a sampled
// operation it publishes a request id on its stream (tracer.cur[stream]) and
// clears it afterwards; every decorator that handles the operation — on the
// driver's own goroutine or, for serve_tcp, on the server's connection
// goroutine, which only runs between the driver's write and the driver's
// read — picks the id up from there. Spans of one request therefore share
// the id without any layer having to count in step with another.

// layer says where a span was recorded.
type layer uint8

const (
	layerDriver    layer = iota // driver.op: one workload operation as the driver sees it
	layerServe                  // stmserve.request: request bytes read → response bytes written
	layerEngine                 // engine.run: one Thread.Run/RunReadOnly, retries included
	layerConnWrite              // conn.write: the server's response Write
	numLayers
)

var layerNames = [numLayers]string{"driver.op", "stmserve.request", "engine.run", "conn.write"}

// layerParents lists, nearest first, the layers a span may hang under; the
// first one that recorded a span for the same request is the parent.
var layerParents = [numLayers][]layer{
	layerDriver:    nil,
	layerServe:     {layerDriver},
	layerEngine:    {layerServe, layerDriver},
	layerConnWrite: {layerServe},
}

// maxStreams bounds the request streams (driver workers) a tracer serves.
const maxStreams = 8

type span struct {
	layer      layer
	req        uint64
	start, end int64 // ns since tracer.epoch
}

// id is unique because a request has at most one span per layer.
func (s span) id() uint64 { return s.req<<3 | uint64(s.layer) }

type tracer struct {
	epoch time.Time
	// cur[s] is the id of the request being traced on stream s, 0 for none.
	// Padded: the server goroutines read it on every operation.
	cur [maxStreams]struct {
		req atomic.Uint64
		_   [56]byte
	}

	// driver[s] records worker s's driver.op spans.
	driver [maxStreams]*recorder

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// requestID packs a stream and a per-stream operation number; never 0.
func requestID(stream int, n uint64) uint64 { return uint64(stream+1)<<40 | n }

// recorder collects the spans of one layer on one stream. It is owned by
// the single goroutine that records into it.
type recorder struct {
	tr     *tracer
	layer  layer
	stream int // −1: a stream the driver never samples (verification, housekeeping)
	spans  []span
}

func (t *tracer) recorder(l layer, stream int) *recorder {
	if stream < 0 || stream >= maxStreams {
		stream = -1
	}
	r := &recorder{tr: t, layer: l, stream: stream}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// sampled returns the id of the request being traced on the recorder's
// stream, or 0.
func (r *recorder) sampled() uint64 {
	if r.stream < 0 {
		return 0
	}
	return r.tr.cur[r.stream].req.Load()
}

func (r *recorder) add(req uint64, start, end int64) {
	r.spans = append(r.spans, span{layer: r.layer, req: req, start: start, end: end})
}

// spansIn returns every recorded span that lies inside [from, to]. Call it
// only after the recording goroutines have stopped.
func (t *tracer) spansIn(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.start >= from && s.end <= to {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].layer < out[j].layer
	})
	return out
}

// parentOf returns the id of s's parent span among byID, or 0.
func parentOf(s span, byID map[uint64]span) uint64 {
	for _, pl := range layerParents[s.layer] {
		p := span{layer: pl, req: s.req}
		if _, ok := byID[p.id()]; ok {
			return p.id()
		}
	}
	return 0
}

// selfTime is a span's duration minus the part of [start, end] its children
// cover. Children may overlap each other and may stick out of the parent.
func selfTime(start, end int64, kids [][2]int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, at := int64(0), start
	for _, k := range kids {
		lo, hi := k[0], k[1]
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return end - start - covered
}

// layerTimes are one layer's per-request durations and self times (ns).
type layerTimes struct {
	total, self []float64
}

// attribute groups spans by layer and subtracts each span's children.
func attribute(spans []span) [numLayers]layerTimes {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id()] = s
	}
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if p := parentOf(s, byID); p != 0 {
			kids[p] = append(kids[p], [2]int64{s.start, s.end})
		}
	}
	var out [numLayers]layerTimes
	for _, s := range spans {
		lt := &out[s.layer]
		lt.total = append(lt.total, float64(s.end-s.start))
		lt.self = append(lt.self, float64(selfTime(s.start, s.end, kids[s.id()])))
	}
	return out
}

// spanRecord is a span as written to the trace file.
type spanRecord struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Request uint64 `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func spanRecords(spans []span) []spanRecord {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id()] = s
	}
	out := make([]spanRecord, len(spans))
	for i, s := range spans {
		out[i] = spanRecord{
			Name: layerNames[s.layer], ID: s.id(), Parent: parentOf(s, byID),
			Request: s.req, StartNs: s.start, EndNs: s.end,
		}
	}
	return out
}

// opCounts are the work counts a tracedEngine keeps for every operation,
// sampled or not.
type opCounts struct {
	runs, attempts     uint64 // update transactions and their closure invocations
	roRuns, roAttempts uint64 // read-only transactions and theirs
	reads, writes      uint64
}

// tracedEngine decorates an engine.Engine: one engine.run span per sampled
// Run/RunReadOnly and work counts for all of them. Cells pass through
// untouched, so the decorated engine can sit under the driver, under
// stmserve.New, or as the inner engine of durable.Wrap.
type tracedEngine struct {
	engine.Engine
	tr *tracer

	mu      sync.Mutex
	threads []*tracedThread
}

func (t *tracer) wrapEngine(e engine.Engine) *tracedEngine {
	return &tracedEngine{Engine: e, tr: t}
}

// Thread maps the engine thread id onto the driver stream of the same
// number: workers use dense ids 0..n−1 directly, stmserve hands them out in
// session order (set-up opens the connections one at a time), and durable
// passes the worker's id through to its inner engine.
func (e *tracedEngine) Thread(id int) engine.Thread {
	inner := e.Engine.Thread(id)
	t := &tracedThread{inner: inner, rec: e.tr.recorder(layerEngine, id)}
	t.ac, _ = inner.(engine.AttemptCounter)
	t.step = func(tx engine.Txn) error {
		if t.ro {
			t.n.roAttempts++
		} else {
			t.n.attempts++
		}
		t.txn.inner = tx
		t.txn.lane, _ = tx.(engine.IntTxn)
		return t.fn(&t.txn)
	}
	e.mu.Lock()
	e.threads = append(e.threads, t)
	e.mu.Unlock()
	return t
}

// counts sums the threads' work counts. Call it only while no transaction
// runs.
func (e *tracedEngine) counts() opCounts {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c opCounts
	for _, t := range e.threads {
		c.runs += t.n.runs
		c.attempts += t.n.attempts
		c.roRuns += t.n.roRuns
		c.roAttempts += t.n.roAttempts
		c.reads += t.txn.reads
		c.writes += t.txn.writes
	}
	return c
}

// tracedThread is padded at both ends: every operation writes its counters,
// and two workers' threads are allocated side by side.
type tracedThread struct {
	_     [64]byte
	inner engine.Thread
	ac    engine.AttemptCounter
	rec   *recorder
	fn    func(engine.Txn) error
	step  func(engine.Txn) error
	ro    bool
	n     opCounts // reads and writes are kept on txn
	txn   tracedTxn
	_     [64]byte
}

func (t *tracedThread) ID() int { return t.inner.ID() }

// Attempts forwards engine.AttemptCounter.
func (t *tracedThread) Attempts() uint64 {
	if t.ac != nil {
		return t.ac.Attempts()
	}
	return t.n.attempts + t.n.roAttempts
}

func (t *tracedThread) Run(fn func(engine.Txn) error) error {
	t.n.runs++
	return t.do(false, fn)
}

func (t *tracedThread) RunReadOnly(fn func(engine.Txn) error) error {
	t.n.roRuns++
	return t.do(true, fn)
}

func (t *tracedThread) do(ro bool, fn func(engine.Txn) error) error {
	t.fn, t.ro = fn, ro
	req := t.rec.sampled()
	var start int64
	if req != 0 {
		start = t.rec.tr.now()
	}
	var err error
	if ro {
		err = t.inner.RunReadOnly(t.step)
	} else {
		err = t.inner.Run(t.step)
	}
	if req != 0 {
		t.rec.add(req, start, t.rec.tr.now())
	}
	return err
}

// tracedTxn counts reads and writes and forwards engine.IntTxn, so the
// unboxed lane stays in use under the decorator.
type tracedTxn struct {
	inner         engine.Txn
	lane          engine.IntTxn
	reads, writes uint64
}

func (t *tracedTxn) Read(c engine.Cell) (any, error) {
	t.reads++
	return t.inner.Read(c)
}

func (t *tracedTxn) Write(c engine.Cell, v any) error {
	t.writes++
	return t.inner.Write(c, v)
}

func (t *tracedTxn) ReadInt(c engine.Cell) (int64, bool, error) {
	if t.lane == nil {
		return 0, false, nil
	}
	t.reads++
	return t.lane.ReadInt(c)
}

func (t *tracedTxn) WriteInt(c engine.Cell, v int64) error {
	if t.lane == nil {
		return t.Write(c, int(v))
	}
	t.writes++
	return t.lane.WriteInt(c, v)
}

func (t *tracedTxn) UpdateInt(c engine.Cell, f func(int64) int64) (bool, error) {
	n, ok, err := t.ReadInt(c)
	if !ok || err != nil {
		return ok, err
	}
	return true, t.WriteInt(c, f(n))
}

// tracedListener hands out tracedConns, numbering them in accept order —
// which is the driver's stream order, because set-up completes a round trip
// on each connection before it dials the next.
type tracedListener struct {
	net.Listener
	tr *tracer
	n  int // Accept is called from the server's one accept goroutine
}

func (t *tracer) wrapListener(l net.Listener) net.Listener {
	return &tracedListener{Listener: l, tr: t}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{
		Conn:   c,
		reqRec: l.tr.recorder(layerServe, l.n),
		wrRec:  l.tr.recorder(layerConnWrite, l.n),
	}
	l.n++
	return tc, nil
}

// tracedConn is the server's end of a connection. The protocol is strictly
// request-response, so a stmserve.request span runs from the Read that
// delivered the request to the return of the Write that carried the reply.
type tracedConn struct {
	net.Conn
	reqRec, wrRec *recorder
	req           uint64
	start         int64
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if c.req = c.reqRec.sampled(); c.req != 0 {
			c.start = c.reqRec.tr.now()
		}
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if c.req == 0 {
		return c.Conn.Write(b)
	}
	t0 := c.wrRec.tr.now()
	n, err := c.Conn.Write(b)
	t1 := c.wrRec.tr.now()
	c.wrRec.add(c.req, t0, t1)
	c.reqRec.add(c.req, c.start, t1)
	c.req = 0
	return n, err
}
