package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/stmserve"
	"repro/internal/timebase"
)

// The layer ladder: single-goroutine micro-timings of each layer's public
// entry points, bottom (time base) to top (replication). Each rung runs the
// same operations as the rung below plus one layer, so the difference
// between adjacent rungs is that layer's cost. A traced run measures the
// rungs of the layers its workload exercises (spec.rungs), so the four
// traced runs together climb the ladder once. The ladder's inputs are
// fixed (ladderSeed), not the run's seed: it measures the code, and its
// counts (durable.wal_bytes_per_tx) must repeat exactly from run to run.
const ladderSeed = 1

// ladderNodes sizes the per-node time bases like engine.Options' default.
const ladderNodes = 8

var clockSink timebase.Timestamp

// perCall runs fn(batch) until at least minCalls calls and minTime have
// been spent in it, and returns the median batch's nanoseconds per call —
// a preempted batch moves the result by one rank, not by its length.
func perCall(minCalls int, minTime time.Duration, batch int, fn func(n int) error) (float64, error) {
	if err := fn(batch); err != nil { // warm caches and lazy set-up
		return 0, err
	}
	var per []float64
	var total time.Duration
	for calls := 0; calls < minCalls || total < minTime; calls += batch {
		t0 := time.Now()
		if err := fn(batch); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		per = append(per, float64(d)/float64(batch))
	}
	return median(per), nil
}

// stepper adapts an opRunner to perCall.
func stepper(r opRunner) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := r.step(); err != nil {
				return err
			}
		}
		return nil
	}
}

// cycle returns a perCall body that calls each(i) with i cycling through
// [0, n).
func cycle(n int, each func(i int) error) func(calls int) error {
	pos := 0
	return func(calls int) error {
		for ; calls > 0; calls-- {
			if err := each(pos); err != nil {
				return err
			}
			if pos++; pos == n {
				pos = 0
			}
		}
		return nil
	}
}

// alternate times a and b in alternating batches, so that a change in the
// host's speed hits both alike, and returns each one's median batch in
// nanoseconds per call. Adjacent rungs are measured this way: their
// difference is a layer's cost only if both saw the same host.
func alternate(rounds, batch int, a, b func(n int) error) (perA, perB float64, err error) {
	var as, bs []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := a(batch); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := b(batch); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		as = append(as, float64(t1.Sub(t0))/float64(batch))
		bs = append(bs, float64(t2.Sub(t1))/float64(batch))
	}
	return median(as), median(bs), nil
}

// ladderOrder lists the rungs that must not be faster than the rung
// beneath them.
var ladderOrder = [][2]string{
	{"core.disjoint_tx_ns", "engine.lsa_shared.disjoint_tx_ns"},
	{"stmserve.exec_thread_us", "stmserve.pipe_rtt_us"},
	{"stmserve.exec_thread_us", "stmserve.tcp_rtt_us"},
	{"durable.inner_us_per_tx", "durable.never_tx_us"},
	{"durable.never_tx_us", "durable.group_tx_us"},
}

// ladderTolerance is how far, as a share of the upper rung, a lower rung
// may exceed it before the run fails: adjacent rungs a few nanoseconds apart
// can swap by noise, a layer that really costs less than nothing cannot.
const ladderTolerance = 0.10

// checkLadder fails when a layer is faster than the one beneath it: that is
// a measurement bug, and every number derived from the pair is void. Pairs
// this run did not measure read 0 on both sides and pass.
func checkLadder(m metrics) error {
	for _, pair := range ladderOrder {
		lo, hi := m[pair[0]].Value, m[pair[1]].Value
		if lo > hi*(1+ladderTolerance) {
			return fmt.Errorf("ladder: %s = %.4g exceeds %s = %.4g", pair[0], lo, pair[1], hi)
		}
	}
	return nil
}

func timebaseRungs(m metrics, _ string) error {
	bases := []struct {
		name    string
		clock   timebase.Clock
		gettime bool
	}{
		{"shared", timebase.NewSharedCounter().Clock(0), true},
		{"mmtimer", timebase.NewMMTimer(ladderNodes).Clock(0), true},
		{"sharded", timebase.NewShardedCounter(ladderNodes, 0).Clock(0), false},
	}
	for _, b := range bases {
		c := b.clock
		if b.gettime {
			ns, _ := perCall(1_000_000, 0, 20_000, func(n int) error {
				for i := 0; i < n; i++ {
					clockSink = c.GetTime()
				}
				return nil
			})
			m.set("timebase."+b.name+".gettime_ns", ns, "ns")
		}
		ns, _ := perCall(1_000_000, 0, 20_000, func(n int) error {
			for i := 0; i < n; i++ {
				clockSink = c.GetNewTS()
			}
			return nil
		})
		m.set("timebase."+b.name+".getnewts_ns", ns, "ns")
	}
	return nil
}

// coreDisjoint is mem_disjoint's transaction written against the core
// runtime's native API, with no engine adapter in between.
type coreDisjoint struct {
	th     *core.Thread
	objs   []*core.Object
	corpus []uint8
	pos    int
	cur    []uint8
	body   func(*core.Tx) error
}

func newCoreDisjoint() (*coreDisjoint, error) {
	rt, err := core.NewRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
	if err != nil {
		return nil, err
	}
	r := &coreDisjoint{th: rt.Thread(0), corpus: disjointCorpus(ladderSeed, 0)}
	for i := 0; i < disjointObjects; i++ {
		r.objs = append(r.objs, core.NewObject(0))
	}
	r.body = func(tx *core.Tx) error {
		for _, i := range r.cur {
			o := r.objs[i]
			v, _, err := tx.ReadInt(o)
			if err != nil {
				return err
			}
			if err := tx.WriteInt(o, v+1); err != nil {
				return err
			}
		}
		return nil
	}
	return r, nil
}

func (r *coreDisjoint) primaryNext() bool { return true }

func (r *coreDisjoint) step() error {
	r.cur = r.corpus[r.pos : r.pos+disjointUpdates]
	if r.pos += disjointUpdates; r.pos == len(r.corpus) {
		r.pos = 0
	}
	return r.th.Run(r.body)
}

// ladderEngines are the backends the engine rungs compare.
var ladderEngines = []struct{ key, name string }{
	{"lsa_shared", "lsa/shared"}, {"norec", "norec"}, {"tl2", "tl2"}, {"glock", "glock"},
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// disjointRungs times mem_disjoint's transaction on the core runtime and
// through the engine adapter.
func disjointRungs(m metrics, _ string) error {
	native, err := newCoreDisjoint()
	if err != nil {
		return err
	}
	w := &memDisjoint{}
	w.prepare(ladderSeed, "")
	inst, err := w.setup(nil)
	if err != nil {
		return err
	}
	coreNs, engNs, err := alternate(50, 20_000, stepper(native), stepper(inst.runners()[0]))
	if err != nil {
		return err
	}
	m.set("core.disjoint_tx_ns", coreNs, "ns")
	m.set("engine.lsa_shared.disjoint_tx_ns", engNs, "ns")
	m.set("engine.adapter_ns", engNs-coreNs, "ns")
	return nil
}

// engineRungs times mem_bank's two transactions on each of ladderEngines.
func engineRungs(m metrics, _ string) error {
	transfers := transferCorpus(workerRand(ladderSeed, 0), bankOps, bankAccounts, 0)
	audits := transferCorpus(workerRand(ladderSeed, 0), 16, bankAccounts, 100)
	for _, e := range ladderEngines {
		eng, err := engine.New(e.name, engine.Options{})
		if err != nil {
			return err
		}
		bank := newBankInstance(eng, nil, bankAccounts, bankInitial, [numWorkers][]transferOp{transfers, audits})
		xfer := stepper(bank.run[0])
		ns, err := perCall(1_000_000, 0, 20_000, xfer)
		if err != nil {
			return err
		}
		m.set("engine."+e.key+".transfer_ns", ns, "ns")
		const allocCalls = 200_000
		before := mallocs()
		if err := xfer(allocCalls); err != nil {
			return err
		}
		m.set("engine."+e.key+".allocs_per_tx", float64(mallocs()-before)/allocCalls, "count")
		if ns, err = perCall(100_000, 0, 2_000, stepper(bank.run[1])); err != nil {
			return err
		}
		m.set("engine."+e.key+".scan256_ns", ns, "ns")
	}
	return nil
}

func stmserveRungs(m metrics, _ string) error {
	reqs := serveMix(workerRand(ladderSeed, 0), 1<<12, serveKeys)
	corpus, err := encodeRequests(reqs)
	if err != nil {
		return err
	}

	var req stmserve.Request
	ns, err := perCall(1_000_000, 0, 20_000, cycle(corpus.len(), func(i int) error {
		line := corpus.line(i)
		return stmserve.ParseRequest(line[:len(line)-1], &req)
	}))
	if err != nil {
		return err
	}
	m.set("stmserve.parse_ns", ns, "ns")

	newService := func(mode string) (*stmserve.Service, error) {
		eng, err := engine.New("norec", engine.Options{})
		if err != nil {
			return nil, err
		}
		return stmserve.New(eng, stmserve.Config{Keys: serveKeys, Initial: serveInitial, Mode: mode})
	}
	// The decoded mix through one in-process session; the replies it leaves
	// in resps are the corpus for AppendResponse.
	resps := make([]stmserve.Response, len(reqs))
	for _, mode := range []string{stmserve.ModeThread, stmserve.ModePool} {
		svc, err := newService(mode)
		if err != nil {
			return err
		}
		sess := svc.Session()
		ns, err := perCall(500_000, 0, 10_000, cycle(len(reqs), func(i int) error {
			return sess.Exec(&reqs[i], &resps[i])
		}))
		sess.Close()
		svc.Close()
		if err != nil {
			return err
		}
		m.set("stmserve.exec_"+mode+"_us", ns/1e3, "us")
	}

	var out []byte
	ns, _ = perCall(1_000_000, 0, 20_000, cycle(len(resps), func(i int) error {
		out = stmserve.AppendResponse(out[:0], &resps[i])
		return nil
	}))
	m.set("stmserve.append_response_ns", ns, "ns")

	// The same mix over the line protocol: in-memory pipe, then loopback.
	svc, err := newService(stmserve.ModeThread)
	if err != nil {
		return err
	}
	defer svc.Close()
	srv := stmserve.NewServer(svc)
	defer srv.Shutdown()
	rtt := func(conn net.Conn) (float64, error) {
		c := newLineClient(conn, corpus)
		defer conn.Close()
		return perCall(50_000, time.Second, 1_000, stepper(c))
	}
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	if ns, err = rtt(clientEnd); err != nil {
		return err
	}
	m.set("stmserve.pipe_rtt_us", ns/1e3, "us")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln) // returns once Shutdown closes the listener
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	if ns, err = rtt(conn); err != nil {
		return err
	}
	m.set("stmserve.tcp_rtt_us", ns/1e3, "us")
	exec := m["stmserve.exec_thread_us"].Value
	m.set("wire.pipe_us", m["stmserve.pipe_rtt_us"].Value-exec, "us")
	m.set("wire.tcp_us", m["stmserve.tcp_rtt_us"].Value-exec, "us")
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// ladderTransfers is the single-threaded transfer stream of the durable and
// replica rungs.
func ladderTransfers() [numWorkers][]transferOp {
	return [numWorkers][]transferOp{transferCorpus(workerRand(ladderSeed, 0), durableOps, durableAccounts, 0)}
}

func durableRungs(m metrics, scratch string) error {
	// The never rung twice over, in alternating batches: once plain, once
	// with the inner engine decorated and every Run timed, which yields the
	// inner engine's share of a durable transaction.
	plainLog, plain, err := openDurable(nil, filepath.Join(scratch, "ladder-never"), durable.FsyncNever, ladderTransfers())
	if err != nil {
		return err
	}
	tr := newTracer()
	tr.cur[0].req.Store(1)
	decoratedLog, decorated, err := openDurable(tr, filepath.Join(scratch, "ladder-inner"), durable.FsyncNever, ladderTransfers())
	if err != nil {
		return err
	}
	neverNs, _, err := alternate(50, 5_000, stepper(plain.run[0]), stepper(decorated.run[0]))
	for _, d := range []*durable.Engine{plainLog, decoratedLog} {
		if cerr := d.WALClose(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	m.set("durable.never_tx_us", neverNs/1e3, "us")
	inner := attribute(tr.spansIn(0, tr.now()))[layerEngine].total
	m.set("durable.inner_us_per_tx", median(inner)/1e3, "us")

	// The policies that wait: milliseconds per commit, so time decides the
	// batch count.
	for _, policy := range []string{durable.FsyncGroup, durable.FsyncAlways} {
		d, bank, err := openDurable(nil, filepath.Join(scratch, "ladder-"+policy), policy, ladderTransfers())
		if err != nil {
			return err
		}
		ns, err := perCall(0, 3*time.Second, 50, stepper(bank.run[0]))
		if cerr := d.WALClose(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m.set("durable."+policy+"_tx_us", ns/1e3, "us")
	}

	never := m["durable.never_tx_us"].Value
	m.set("durable.append_us", never-m["durable.inner_us_per_tx"].Value, "us")
	m.set("durable.group_wait_us", m["durable.group_tx_us"].Value-never, "us")
	m.set("durable.fsync_us", m["durable.always_tx_us"].Value-never, "us")

	// Log bytes per commit: a count, so it must repeat exactly.
	const byteCalls = 10_000
	dir := filepath.Join(scratch, "ladder-bytes")
	d, bank, err := openDurable(nil, dir, durable.FsyncNever, ladderTransfers())
	if err != nil {
		return err
	}
	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	err = stepper(bank.run[0])(byteCalls)
	if cerr := d.WALClose(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("durable.wal_bytes_per_tx", float64(after-before)/byteCalls, "bytes")

	// Replay: durable_group's set-up, a restart over the prepared-size log.
	restart := &durableGroup{dir: filepath.Join(scratch, "ladder-replay")}
	if err := prepareLog(restart.dir, ladderSeed, preparedCommits); err != nil {
		return err
	}
	opens, inst, err := timeSetups(restart)
	if err != nil {
		return err
	}
	m.set("durable.replay_us_per_commit", median(opens)*1e6/preparedCommits, "us")
	return inst.close()
}

func replicaRungs(m metrics, scratch string) error {
	// A primary and one follower over an in-process link; the client's
	// acknowledgment waits for the follower's (quorum 1).
	pd, bank, err := openDurable(nil, filepath.Join(scratch, "ladder-primary"), durable.FsyncGroup, ladderTransfers())
	if err != nil {
		return err
	}
	defer pd.WALClose()
	fd, _, err := openDurable(nil, filepath.Join(scratch, "ladder-follower"), durable.FsyncGroup, [numWorkers][]transferOp{})
	if err != nil {
		return err
	}
	defer fd.WALClose()
	prim := replica.NewPrimary(pd, replica.PrimaryOptions{Quorum: 1})
	defer prim.Close()
	fol := replica.NewFollower(fd, func() (net.Conn, error) {
		l := replica.NewLink()
		go prim.HandleConn(l.B())
		return l.A(), nil
	}, replica.FollowerOptions{})
	defer fol.Close()
	ns, err := perCall(0, 3*time.Second, 50, stepper(bank.run[0]))
	if err != nil {
		return err
	}
	m.set("replica.quorum_tx_us", ns/1e3, "us")
	m.set("replica.ack_us", ns/1e3-m["durable.group_tx_us"].Value, "us")
	return nil
}
