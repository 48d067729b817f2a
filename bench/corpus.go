package main

import (
	"math/rand"

	"repro/internal/stmserve"
)

// Workload inputs. Everything a worker executes is generated here from the
// seed, before set-up, and replayed cyclically; the systems under test see
// only the generated operations. math/rand with an explicit source is used
// because its streams are fixed across Go releases.

const (
	numWorkers = 2 // the host has 2 CPUs; one closed-loop worker each

	disjointObjects = 20   // per worker partition (paper §4.2)
	disjointUpdates = 10   // objects incremented per transaction
	disjointTxs     = 4096 // corpus length per worker

	bankAccounts = 256
	bankInitial  = 1000
	bankOps      = 1 << 16
	bankAuditPct = 10

	serveKeys     = 65536
	serveInitial  = 1000
	serveRequests = 1 << 16
	serveSnapKeys = 8
	serveZipfS    = 1.2

	durableAccounts = 1024
	durableInitial  = 1000
	durableOps      = 1 << 14
)

// workerRand is worker w's private stream of a run's seed.
func workerRand(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
}

// disjointCorpus returns disjointTxs transactions of disjointUpdates
// distinct object indices each, flattened.
func disjointCorpus(seed int64, w int) []uint8 {
	r := workerRand(seed, w)
	out := make([]uint8, 0, disjointTxs*disjointUpdates)
	for i := 0; i < disjointTxs; i++ {
		for _, o := range r.Perm(disjointObjects)[:disjointUpdates] {
			out = append(out, uint8(o))
		}
	}
	return out
}

// transferOp moves amount from one account to another; audit marks a
// read-only scan instead (mem_bank only).
type transferOp struct {
	from, to uint16
	amount   int16
	audit    bool
}

// transferCorpus returns n operations over the given number of accounts, of
// which auditPct percent are audits and the rest transfers between two
// distinct accounts.
func transferCorpus(r *rand.Rand, n, accounts, auditPct int) []transferOp {
	out := make([]transferOp, n)
	for i := range out {
		if r.Intn(100) < auditPct {
			out[i].audit = true
			continue
		}
		from := r.Intn(accounts)
		to := r.Intn(accounts - 1)
		if to >= from {
			to++
		}
		out[i] = transferOp{from: uint16(from), to: uint16(to), amount: int16(1 + r.Intn(9))}
	}
	return out
}

// Request kinds of the serve_tcp mix.
const (
	kindTransfer uint8 = iota
	kindRead
	kindSnapshot
)

// serveCorpus is one connection's request stream, encoded once: request i
// is lines[off[i]:off[i+1]], newline included.
type serveCorpus struct {
	lines []byte
	off   []uint32
	kind  []uint8
}

func (c *serveCorpus) len() int { return len(c.kind) }

func (c *serveCorpus) line(i int) []byte { return c.lines[c.off[i]:c.off[i+1]] }

// serveMix returns n decoded requests: 50 % transfers, 30 % reads, 20 %
// 8-key snapshots, keys zipf(s)-distributed over the keyspace. The mix
// conserves the sum of all keys.
func serveMix(r *rand.Rand, n, keys int) []stmserve.Request {
	z := rand.NewZipf(r, serveZipfS, 1, uint64(keys-1))
	key := func() int { return int(z.Uint64()) }
	out := make([]stmserve.Request, n)
	for i := range out {
		switch p := r.Intn(100); {
		case p < 50:
			from, to := key(), key()
			for to == from {
				to = key()
			}
			out[i] = stmserve.Request{Op: stmserve.OpTransfer, Key: from, Key2: to, Val: int64(1 + r.Intn(9))}
		case p < 80:
			out[i] = stmserve.Request{Op: stmserve.OpRead, Key: key()}
		default:
			ks := make([]int, serveSnapKeys)
			for j := range ks {
				ks[j] = key()
			}
			out[i] = stmserve.Request{Op: stmserve.OpSnapshot, Keys: ks}
		}
	}
	return out
}

func requestKind(req *stmserve.Request) uint8 {
	switch req.Op {
	case stmserve.OpTransfer:
		return kindTransfer
	case stmserve.OpRead:
		return kindRead
	default:
		return kindSnapshot
	}
}

// encodeRequests turns decoded requests into the wire corpus.
func encodeRequests(reqs []stmserve.Request) (*serveCorpus, error) {
	c := &serveCorpus{off: make([]uint32, 1, len(reqs)+1), kind: make([]uint8, len(reqs))}
	for i := range reqs {
		var err error
		if c.lines, err = stmserve.AppendRequest(c.lines, &reqs[i]); err != nil {
			return nil, err
		}
		c.lines = append(c.lines, '\n')
		c.off = append(c.off, uint32(len(c.lines)))
		c.kind[i] = requestKind(&reqs[i])
	}
	return c, nil
}
