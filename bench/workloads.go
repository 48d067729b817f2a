package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/stmserve"
)

// workload is one of the benchmark's four input sets. prepare builds the
// seed-derived inputs and any on-disk state, untimed, once per process;
// setup is the timed set-up and may be called repeatedly.
type workload interface {
	prepare(seed int64, scratch string) error
	// setup builds an instance. A non-nil tracer asks for the decorated
	// variant: the same construction with trace decorators at the seams.
	setup(tr *tracer) (instance, error)
}

// instance is a set-up system plus the workers' operation streams on it.
type instance interface {
	runners() []opRunner
	// verify checks the instance's outputs after the workers have stopped,
	// untimed. done is the number of operations that completed without
	// error over the whole run. It returns the number of checks made and
	// the first failure.
	verify(done uint64) (checks int, err error)
	// stats returns the engine's counters and, for a decorated instance,
	// the decorator's work counts.
	stats() (engine.Stats, opCounts)
	close() error
}

// spec describes a workload to the driver and to BENCHMARK.json.
type spec struct {
	name    string
	why     string
	primary string // the op whose latency p50_us reports
	// latStride: 1 in latStride primary ops is timed. Every op where an op
	// takes microseconds or more; 1 in 16 where two clock reads would be a
	// visible share of the op.
	latStride uint64
	// fastPct is the percentile of the primary op's latency that fast_us
	// reports: the low end of the distribution, where the op ran without the
	// host or another worker in its way. The 1st where the op is CPU work; on
	// durable_group, where a commit waits for the flusher's tick and the
	// first few percent are commits that happened to arrive just before
	// one, the 10th, the lower edge of the bulk.
	fastPct float64
	// traceStride: 1 in traceStride ops is traced, chosen so a traced run
	// keeps some tens of thousands of spans whatever the op rate.
	traceStride uint64
	wal         bool // the workload writes a log under the scratch directory
	new         func() workload
	// rungs are the parts of the layer ladder this workload's traced run
	// measures: those of the layers the workload exercises.
	rungs []func(m metrics, scratch string) error
}

var specs = []spec{
	{
		name:    "mem_disjoint",
		why:     "paper section 4.2: private partitions, no conflicts, so time base + core commit path + engine adapter are all of the time",
		primary: "update transaction (10 increments)", latStride: 16, fastPct: 1, traceStride: 1024,
		new:   func() workload { return &memDisjoint{} },
		rungs: []func(metrics, string) error{timebaseRungs, disjointRungs},
	},
	{
		name:    "mem_bank",
		why:     "same core layer used differently: short transfers beside multi-version read-only audits, validation, extension, contention",
		primary: "audit (read-only scan of 256 accounts)", latStride: 16, fastPct: 1, traceStride: 1024,
		new:   func() workload { return &memBank{} },
		rungs: []func(metrics, string) error{engineRungs},
	},
	{
		name:    "serve_tcp",
		why:     "norec behind the line protocol on loopback TCP: wire + parse + session are >90% of an op, the engine <5%",
		primary: "transfer round trip", latStride: 1, fastPct: 1, traceStride: 64,
		new:   func() workload { return &serveTCP{} },
		rungs: []func(metrics, string) error{stmserveRungs},
	},
	{
		name:    "durable_group",
		why:     "durable/norec under group commit: the flush wait is ~all of each commit; set-up is restart over a 200k-commit log",
		primary: "acknowledged commit", latStride: 1, fastPct: 10, traceStride: 1, wal: true,
		new:   func() workload { return &durableGroup{} },
		rungs: []func(metrics, string) error{durableRungs, replicaRungs},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// traced returns e decorated by tr, or e itself when tr is nil.
func traced(tr *tracer, e engine.Engine) (engine.Engine, *tracedEngine) {
	if tr == nil {
		return e, nil
	}
	te := tr.wrapEngine(e)
	return te, te
}

// engineStats reads the engine's counters and the decorator's, if any.
func engineStats(e engine.Engine, te *tracedEngine) (engine.Stats, opCounts) {
	if te == nil {
		return e.Stats(), opCounts{}
	}
	return e.Stats(), te.counts()
}

// asRunners presents a workload's runners as opRunners.
func asRunners[T opRunner](rs []T) []opRunner {
	out := make([]opRunner, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}

// sumIn adds up the cells inside a transaction.
func sumIn(tx engine.Txn, cells []engine.Cell) (int64, error) {
	var sum int64
	for _, c := range cells {
		v, err := engine.Get[int64](tx, c)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// sumCells reads every cell in one read-only transaction on th.
func sumCells(th engine.Thread, cells []engine.Cell) (sum int64, err error) {
	err = th.RunReadOnly(func(tx engine.Txn) (err error) {
		sum, err = sumIn(tx, cells)
		return err
	})
	return sum, err
}

// transfer is the closure body every bank-style runner shares.
func transfer(tx engine.Txn, cells []engine.Cell, op transferOp) error {
	from, to := cells[op.from], cells[op.to]
	fv, err := engine.Get[int64](tx, from)
	if err != nil {
		return err
	}
	tv, err := engine.Get[int64](tx, to)
	if err != nil {
		return err
	}
	if err := engine.Set(tx, from, fv-int64(op.amount)); err != nil {
		return err
	}
	return engine.Set(tx, to, tv+int64(op.amount))
}

// ---- mem_disjoint ----

type memDisjoint struct {
	corpus [numWorkers][]uint8
}

func (w *memDisjoint) prepare(seed int64, _ string) error {
	for i := range w.corpus {
		w.corpus[i] = disjointCorpus(seed, i)
	}
	return nil
}

type disjointInstance struct {
	eng     engine.Engine
	te      *tracedEngine
	cells   []engine.Cell
	spacers []any // kept reachable so the allocator cannot reuse the gaps
	run     []*disjointRunner
}

// isolate allocates and returns engine objects that are never used: cells
// and threads created between two workers' own, so that the workers' objects
// cannot end up on one cache line. An LSA cell is a single pointer — eight
// to a line — and whether two partitions would share a line is decided by
// the allocator's free lists, differently in every process; left to that
// luck, mem_disjoint (whose point is that the workers share nothing but the
// time base) ran in a fast or a slow mode for the whole life of a process.
func isolate(eng engine.Engine, id int) []any {
	var out []any
	for i := 0; i < 16; i++ {
		out = append(out, eng.NewCell(0))
	}
	for i := 0; i < 4; i++ {
		out = append(out, eng.Thread(id))
	}
	return out
}

func (w *memDisjoint) setup(tr *tracer) (instance, error) {
	base, err := engine.New("lsa/shared", engine.Options{})
	if err != nil {
		return nil, err
	}
	inst := &disjointInstance{}
	inst.eng, inst.te = traced(tr, base)
	for i := 0; i < numWorkers; i++ {
		part := make([]engine.Cell, disjointObjects)
		for j := range part {
			part[j] = inst.eng.NewCell(0)
		}
		inst.cells = append(inst.cells, part...)
		inst.run = append(inst.run, newDisjointRunner(inst.eng.Thread(i), part, w.corpus[i]))
		inst.spacers = append(inst.spacers, isolate(inst.eng, numWorkers+1)...)
	}
	return inst, nil
}

func (in *disjointInstance) runners() []opRunner { return asRunners(in.run) }

func (in *disjointInstance) verify(done uint64) (int, error) {
	sum, err := sumCells(in.eng.Thread(numWorkers), in.cells)
	if err != nil {
		return 1, err
	}
	if want := int64(done) * disjointUpdates; sum != want {
		return 1, fmt.Errorf("mem_disjoint: objects sum to %d after %d commits, want %d", sum, done, want)
	}
	return 1, nil
}

func (in *disjointInstance) stats() (engine.Stats, opCounts) { return engineStats(in.eng, in.te) }
func (in *disjointInstance) close() error                    { return nil }

// Runners are padded like workers: each is written on every operation by
// its own worker only.
type disjointRunner struct {
	_      [64]byte
	th     engine.Thread
	cells  []engine.Cell
	corpus []uint8
	pos    int
	cur    []uint8
	body   func(engine.Txn) error
	_      [64]byte
}

func newDisjointRunner(th engine.Thread, cells []engine.Cell, corpus []uint8) *disjointRunner {
	r := &disjointRunner{th: th, cells: cells, corpus: corpus}
	r.body = func(tx engine.Txn) error {
		for _, i := range r.cur {
			c := r.cells[i]
			v, err := engine.Get[int64](tx, c)
			if err != nil {
				return err
			}
			if err := engine.Set(tx, c, v+1); err != nil {
				return err
			}
		}
		return nil
	}
	return r
}

func (r *disjointRunner) primaryNext() bool { return true }

func (r *disjointRunner) step() error {
	r.cur = r.corpus[r.pos : r.pos+disjointUpdates]
	if r.pos += disjointUpdates; r.pos == len(r.corpus) {
		r.pos = 0
	}
	return r.th.Run(r.body)
}

// ---- mem_bank ----

type memBank struct {
	corpus [numWorkers][]transferOp
}

func (w *memBank) prepare(seed int64, _ string) error {
	for i := range w.corpus {
		w.corpus[i] = transferCorpus(workerRand(seed, i), bankOps, bankAccounts, bankAuditPct)
	}
	return nil
}

type bankInstance struct {
	eng   engine.Engine
	te    *tracedEngine
	cells []engine.Cell
	total int64
	run   []*bankRunner
}

// newBankInstance builds accounts cells of initial each on eng and one
// runner per corpus.
func newBankInstance(eng engine.Engine, te *tracedEngine, accounts int, initial int64, corpus [numWorkers][]transferOp) *bankInstance {
	inst := &bankInstance{eng: eng, te: te, total: int64(accounts) * initial}
	inst.cells = make([]engine.Cell, accounts)
	for i := range inst.cells {
		inst.cells[i] = eng.NewCell(int(initial))
	}
	for i, ops := range corpus {
		inst.run = append(inst.run, newBankRunner(eng.Thread(i), inst.cells, ops, inst.total))
	}
	return inst
}

func (w *memBank) setup(tr *tracer) (instance, error) {
	base, err := engine.New("lsa/shared", engine.Options{})
	if err != nil {
		return nil, err
	}
	eng, te := traced(tr, base)
	return newBankInstance(eng, te, bankAccounts, bankInitial, w.corpus), nil
}

func (in *bankInstance) runners() []opRunner { return asRunners(in.run) }

func (in *bankInstance) verify(uint64) (int, error) {
	sum, err := sumCells(in.eng.Thread(numWorkers), in.cells)
	if err != nil {
		return 1, err
	}
	if sum != in.total {
		return 1, fmt.Errorf("bank: accounts sum to %d, want %d", sum, in.total)
	}
	return 1, nil
}

func (in *bankInstance) stats() (engine.Stats, opCounts) { return engineStats(in.eng, in.te) }
func (in *bankInstance) close() error                    { return nil }

var errAudit = errors.New("bank: audit saw a sum that is not the conserved total")

// bankRunner replays transfers and audits. Every audit checks the conserved
// sum, so a torn snapshot is a failed operation, not a fast one. The
// primary op is the audit when the corpus has audits, else the transfer.
type bankRunner struct {
	_     [64]byte
	th    engine.Thread
	cells []engine.Cell
	ops   []transferOp
	pos   int
	cur   transferOp
	want  int64
	sum   int64
	mixed bool // the corpus has audits
	xfer  func(engine.Txn) error
	audit func(engine.Txn) error
	_     [64]byte
}

func newBankRunner(th engine.Thread, cells []engine.Cell, ops []transferOp, want int64) *bankRunner {
	r := &bankRunner{th: th, cells: cells, ops: ops, want: want}
	for _, op := range ops {
		r.mixed = r.mixed || op.audit
	}
	r.xfer = func(tx engine.Txn) error { return transfer(tx, r.cells, r.cur) }
	r.audit = func(tx engine.Txn) (err error) {
		r.sum, err = sumIn(tx, r.cells)
		return err
	}
	return r
}

func (r *bankRunner) primaryNext() bool { return r.ops[r.pos].audit == r.mixed }

func (r *bankRunner) step() error {
	r.cur = r.ops[r.pos]
	if r.pos++; r.pos == len(r.ops) {
		r.pos = 0
	}
	if !r.cur.audit {
		return r.th.Run(r.xfer)
	}
	if err := r.th.RunReadOnly(r.audit); err != nil {
		return err
	}
	if r.sum != r.want {
		return errAudit
	}
	return nil
}

// ---- serve_tcp ----

type serveTCP struct {
	corpus [numWorkers]*serveCorpus
}

func (w *serveTCP) prepare(seed int64, _ string) error {
	for i := range w.corpus {
		c, err := encodeRequests(serveMix(workerRand(seed, i), serveRequests, serveKeys))
		if err != nil {
			return err
		}
		w.corpus[i] = c
	}
	return nil
}

type serveInstance struct {
	eng    engine.Engine
	te     *tracedEngine
	svc    *stmserve.Service
	srv    *stmserve.Server
	addr   string
	served chan error
	run    []*lineClient
}

func (w *serveTCP) setup(tr *tracer) (instance, error) {
	base, err := engine.New("norec", engine.Options{})
	if err != nil {
		return nil, err
	}
	inst := &serveInstance{served: make(chan error, 1)}
	inst.eng, inst.te = traced(tr, base)
	inst.svc, err = stmserve.New(inst.eng, stmserve.Config{Keys: serveKeys, Initial: serveInitial, Mode: stmserve.ModeThread})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst.addr = ln.Addr().String()
	if tr != nil {
		ln = tr.wrapListener(ln)
	}
	inst.srv = stmserve.NewServer(inst.svc)
	go func() { inst.served <- inst.srv.Serve(ln) }()
	for i := 0; i < numWorkers; i++ {
		// One round trip per connection before the next dial, so that the
		// server's sessions (and engine threads) exist in stream order.
		c, err := dialLine(inst.addr)
		if err != nil {
			inst.close()
			return nil, err
		}
		c.corpus = w.corpus[i]
		inst.run = append(inst.run, c)
	}
	return inst, nil
}

func (in *serveInstance) runners() []opRunner { return asRunners(in.run) }

// verify reads the whole keyspace back over a fresh connection. The workers
// have stopped, so the chunks add up to one consistent total.
func (in *serveInstance) verify(uint64) (int, error) {
	c, err := dialLine(in.addr)
	if err != nil {
		return 1, err
	}
	defer c.conn.Close()
	const chunk = 512
	var sum int64
	req := stmserve.Request{Op: stmserve.OpSnapshot, Keys: make([]int, chunk)}
	var line []byte
	for base := 0; base < serveKeys; base += chunk {
		for i := range req.Keys {
			req.Keys[i] = base + i
		}
		if line, err = stmserve.AppendRequest(line[:0], &req); err != nil {
			return 1, err
		}
		if err := c.roundTrip(append(line, '\n'), chunk); err != nil {
			return 1, err
		}
		for _, v := range c.resp.Vals {
			sum += v
		}
	}
	if want := int64(serveKeys) * serveInitial; sum != want {
		return 1, fmt.Errorf("serve_tcp: keys sum to %d, want %d", sum, want)
	}
	return 1, nil
}

func (in *serveInstance) stats() (engine.Stats, opCounts) { return engineStats(in.eng, in.te) }

func (in *serveInstance) close() error {
	for _, c := range in.run {
		c.conn.Close()
	}
	in.srv.Shutdown()
	<-in.served
	return in.svc.Close()
}

// lineClient is the benchmark's own line-protocol client: pre-encoded
// request lines out, one response line back, parsed and checked.
type lineClient struct {
	_      [64]byte
	conn   net.Conn
	r      *bufio.Reader
	resp   stmserve.Response
	corpus *serveCorpus
	pos    int
	_      [64]byte
}

var (
	errReply = errors.New("serve: error reply")
	errShape = errors.New("serve: reply has the wrong number of values")
)

func newLineClient(conn net.Conn, corpus *serveCorpus) *lineClient {
	return &lineClient{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), corpus: corpus}
}

// dialLine connects and completes a PING round trip.
func dialLine(addr string) (*lineClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newLineClient(conn, nil)
	if err := c.roundTrip([]byte("PING\n"), 0); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// roundTrip sends one encoded request and reads its reply, which must be an
// OK carrying exactly vals values.
func (c *lineClient) roundTrip(line []byte, vals int) error {
	if _, err := c.conn.Write(line); err != nil {
		return err
	}
	reply, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if err := stmserve.ParseResponse(reply[:len(reply)-1], &c.resp); err != nil {
		return err
	}
	if c.resp.Err != "" {
		return errReply
	}
	if len(c.resp.Vals) != vals {
		return errShape
	}
	return nil
}

var replyVals = [...]int{kindTransfer: 0, kindRead: 1, kindSnapshot: serveSnapKeys}

func (c *lineClient) primaryNext() bool { return c.corpus.kind[c.pos] == kindTransfer }

func (c *lineClient) step() error {
	i := c.pos
	if c.pos++; c.pos == c.corpus.len() {
		c.pos = 0
	}
	return c.roundTrip(c.corpus.line(i), replyVals[c.corpus.kind[i]])
}

// ---- durable_group ----

// preparedCommits is the length of the log durable_group restarts over.
const preparedCommits = 200_000

type durableGroup struct {
	dir    string
	corpus [numWorkers][]transferOp
}

// openDurable wraps a fresh norec engine (decorated when tr is set) in the
// WAL at dir and re-creates the accounts. Compaction stays off: a snapshot
// would rewrite the prepared log under the repeated set-ups.
func openDurable(tr *tracer, dir, fsync string, corpus [numWorkers][]transferOp) (*durable.Engine, *bankInstance, error) {
	base, err := engine.New("norec", engine.Options{})
	if err != nil {
		return nil, nil, err
	}
	inner, te := traced(tr, base)
	d, err := durable.Wrap(inner, durable.Options{Dir: dir, Fsync: fsync, SnapshotBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	return d, newBankInstance(d, te, durableAccounts, durableInitial, corpus), nil
}

// prepareLog writes a log of n single-threaded transfers into dir.
func prepareLog(dir string, seed int64, n int) error {
	var corpus [numWorkers][]transferOp
	corpus[0] = transferCorpus(workerRand(seed, numWorkers), n, durableAccounts, 0)
	d, bank, err := openDurable(nil, dir, durable.FsyncNever, corpus)
	if err != nil {
		return err
	}
	r := bank.run[0]
	for i := 0; i < n; i++ {
		if err := r.step(); err != nil {
			d.WALClose()
			return err
		}
	}
	return d.WALClose()
}

func (w *durableGroup) prepare(seed int64, scratch string) error {
	w.dir = filepath.Join(scratch, "wal")
	for i := range w.corpus {
		w.corpus[i] = transferCorpus(workerRand(seed, i), durableOps, durableAccounts, 0)
	}
	return prepareLog(w.dir, seed, preparedCommits)
}

type durableInstance struct {
	*bankInstance
	d         *durable.Engine
	dir       string
	recovered uint64 // the log's last sequence number when this instance opened it
}

func (w *durableGroup) setup(tr *tracer) (instance, error) {
	d, bank, err := openDurable(tr, w.dir, durable.FsyncGroup, w.corpus)
	if err != nil {
		return nil, err
	}
	recovered := d.DurabilityInfo().RecoveredSeq
	if recovered < preparedCommits {
		d.WALClose()
		return nil, fmt.Errorf("durable_group: recovered seq %d, prepared %d", recovered, preparedCommits)
	}
	return &durableInstance{bankInstance: bank, d: d, dir: w.dir, recovered: recovered}, nil
}

// verify restarts the store: acknowledged ⇒ durable. Every commit the
// workers saw acknowledged must be in the recovered log on top of what the
// instance itself recovered (the same directory is reopened by every set-up
// repetition), and the recovered accounts must still add up.
func (in *durableInstance) verify(done uint64) (int, error) {
	if err := in.d.WALClose(); err != nil {
		return 2, err
	}
	d, bank, err := openDurable(nil, in.dir, durable.FsyncNever, [numWorkers][]transferOp{})
	if err != nil {
		return 2, err
	}
	defer d.WALClose()
	if got, want := d.DurabilityInfo().RecoveredSeq, in.recovered+done; got < want {
		return 2, fmt.Errorf("durable_group: recovered seq %d < %d recovered at set-up + %d acknowledged", got, in.recovered, done)
	}
	_, err = bank.verify(done)
	return 2, err
}

func (in *durableInstance) close() error { return in.d.WALClose() }
