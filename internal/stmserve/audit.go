package stmserve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// The acked-transfer audit: the client-side half of both survival proofs,
// "acked ⇒ durable" and "quorum-acked ⇒ survives failover". Each audit
// connection owns a marker key and transfers value into it one acknowledged
// unit at a time, remembering exactly how many transfers were acked before
// the server died (the kill is external — kill -9 in CI, Service.Close in
// tests). The audit then reaches the survivor and asserts on it that every
// acknowledged commit is there — marker ≥ baseline + acked — and that the
// whole keyspace still conserves its sum.
//
// Only "reach the survivor" and the telemetry that proves the survivor got
// its state the intended way differ between the two proofs, and which one
// runs follows from whether a standby is given:
//
//   - no standby: the same node restarts over its WAL. Redial until it
//     answers PING; its durability stats must report recovered commits.
//   - a standby: promote it. The primary must report an attached follower
//     before the load starts (or acked transfers have nowhere to survive
//     to), PROMOTE is retried until accepted, and the promoted node must
//     report itself promoted with a nonzero replication watermark. The
//     zero-loss claim is only as strong as the ack mode: run the primary
//     with -repl-ack quorum, otherwise the acked tail may die with it.
//
// cmd/stmload's -recovery-audit and -failover-audit flags are shells over
// this; the CI crash-recovery and replication jobs run it across a real
// kill -9.

// AuditOptions parameterizes RunAudit. Zero values select defaults.
type AuditOptions struct {
	// Conns is the number of audit connections (default 4). Each owns one
	// marker key (key i) and one sink key (key keys/2+i), so Conns must be
	// ≤ keys/2.
	Conns int
	// Window bounds the load phase: if the server has not gone down within
	// it, the audit fails (default 30s).
	Window time.Duration
	// Timeout bounds each wait for another process: a follower attaching to
	// the primary before the load, and the survivor answering after the
	// death (default 30s).
	Timeout time.Duration
	// Keys, when nonzero, must match the keyspace size the server reports
	// via INFO; the survivor must always agree with the dead server (a
	// durable engine recovers cells by creation order, so a -keys mismatch
	// would silently misalign the keyspace).
	Keys int
	// ExpectRecovered additionally asserts, when the same node restarts,
	// that its durability stats report at least one recovered commit — the
	// signal that a WAL replay actually happened.
	ExpectRecovered bool
	// SkipSum skips the conserved-sum assertion. Set it when other clients
	// ran non-transfer traffic against the same keyspace.
	SkipSum bool
}

// minFollowers is how many attached followers the primary must report
// before a failover audit starts loading.
const minFollowers = 1

func (o AuditOptions) withDefaults() AuditOptions {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Window <= 0 {
		o.Window = 30 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// AuditReport is the audit's outcome. Err-free completion means every
// acknowledged transfer was found again on the survivor.
type AuditReport struct {
	Conns     int           `json:"conns"`
	Keys      int           `json:"keys"`
	Followers int           `json:"followers,omitempty"` // primary's view before load
	Acked     uint64        `json:"acked"`
	PerConn   []uint64      `json:"acked_per_conn"`
	DownAfter time.Duration `json:"down_after_ns"`
	// ReconnectAfter is the time from the death to the survivor answering:
	// the restarted node's first PING, or the standby accepting PROMOTE.
	ReconnectAfter time.Duration `json:"reconnect_after_ns"`
	Sum            int64         `json:"sum"`
	WantSum        int64         `json:"want_sum"`
	// What a restarted node replayed from its WAL.
	RecoveredCommits uint64 `json:"recovered_commits,omitempty"`
	RecoveredSeq     uint64 `json:"recovered_seq,omitempty"`
	// AppliedSeq is a promoted standby's replication watermark — the nonzero
	// proof that commits actually flowed over the wire.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
}

// infoCall issues INFO and returns (keys, initial).
func infoCall(c Caller) (int, int64, error) {
	var resp Response
	if err := c.Do(&Request{Op: OpInfo}, &resp); err != nil {
		return 0, 0, fmt.Errorf("stmserve: INFO: %w", err)
	}
	if resp.Err != "" || len(resp.Vals) < 2 {
		return 0, 0, fmt.Errorf("stmserve: INFO: %q (vals %v)", resp.Err, resp.Vals)
	}
	return int(resp.Vals[0]), resp.Vals[1], nil
}

// StatsCall issues STATS and decodes the JSON payload.
func StatsCall(c Caller) (*Stats, error) {
	var resp Response
	if err := c.Do(&Request{Op: OpStats}, &resp); err != nil {
		return nil, fmt.Errorf("stmserve: STATS: %w", err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("stmserve: STATS: %s", resp.Err)
	}
	var st Stats
	if err := json.Unmarshal([]byte(resp.Text), &st); err != nil {
		return nil, fmt.Errorf("stmserve: STATS decode: %w", err)
	}
	return &st, nil
}

// readRange reads keys [lo, hi) in one transaction of kind op (OpBatchRead
// or OpSnapshot).
func readRange(c Caller, op Op, lo, hi int) ([]int64, error) {
	req := Request{Op: op, Keys: make([]int, 0, hi-lo)}
	for k := lo; k < hi; k++ {
		req.Keys = append(req.Keys, k)
	}
	var resp Response
	if err := c.Do(&req, &resp); err != nil || resp.Err != "" || len(resp.Vals) != hi-lo {
		return nil, fmt.Errorf("stmserve: audit: %s [%d,%d): %v %q", op, lo, hi, err, resp.Err)
	}
	return resp.Vals, nil
}

// reach polls dial until accept says the node behind it is the survivor,
// and returns that connection. accept returns (false, nil) for "not yet"
// and an error for an answer that retrying cannot change.
func reach(dial Dialer, timeout time.Duration, accept func(Caller) (bool, error)) (Caller, error) {
	start := time.Now()
	for {
		if c, err := dial(); err == nil {
			ok, err := accept(c)
			if ok {
				return c, nil
			}
			c.Close()
			if err != nil {
				return nil, err
			}
		}
		if time.Since(start) > timeout {
			return nil, fmt.Errorf("stmserve: audit: survivor not reached within %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// pinged accepts a restarted node: it answers PING.
func pinged(c Caller) (bool, error) {
	var resp Response
	return c.Do(&Request{Op: OpPing}, &resp) == nil && resp.Err == "", nil
}

// promoted accepts a standby once it has taken PROMOTE. Transport failures
// are retried (the standby may be briefly unreachable); a PROMOTE racing an
// earlier success reports "already promoted", which is success here; any
// other answer is a refusal no retry will change.
func promoted(c Caller) (bool, error) {
	var resp Response
	if err := c.Do(&Request{Op: OpPromote}, &resp); err != nil {
		return false, nil
	}
	if resp.Err == "" || strings.Contains(resp.Err, "already promoted") {
		return true, nil
	}
	return false, fmt.Errorf("stmserve: audit: standby refused PROMOTE: %s", resp.Err)
}

// auditSetup is the audit's first phase, on one connection to the primary:
// read the keyspace shape into rep, wait for replication to be live if a
// standby is to take over, and return the per-conn marker baselines (the WAL
// dir may hold state from earlier runs, so markers need not start at the
// initial balance).
func auditSetup(primary Dialer, wantFollower bool, opts AuditOptions, rep *AuditReport) ([]int64, error) {
	c, err := primary()
	if err != nil {
		return nil, fmt.Errorf("stmserve: audit dial: %w", err)
	}
	defer c.Close()
	keys, initial, err := infoCall(c)
	if err != nil {
		return nil, err
	}
	if opts.Keys != 0 && opts.Keys != keys {
		return nil, fmt.Errorf("stmserve: audit: server keyspace %d != expected %d", keys, opts.Keys)
	}
	rep.Keys = keys
	rep.WantSum = int64(keys) * initial
	if opts.Conns > keys/2 {
		return nil, fmt.Errorf("stmserve: audit: %d conns need %d keys (marker+sink per conn), have %d", opts.Conns, 2*opts.Conns, keys)
	}
	if wantFollower {
		for waitStart := time.Now(); ; time.Sleep(50 * time.Millisecond) {
			st, err := StatsCall(c)
			if err != nil {
				return nil, err
			}
			if st.Replication == nil {
				return nil, fmt.Errorf("stmserve: audit: primary reports no replication block (started without -repl-listen?)")
			}
			if rep.Followers = st.Replication.Followers; rep.Followers >= minFollowers {
				break
			}
			if time.Since(waitStart) > opts.Timeout {
				return nil, fmt.Errorf("stmserve: audit: primary has %d followers after %v, want ≥ %d",
					rep.Followers, opts.Timeout, minFollowers)
			}
		}
	}
	return readRange(c, OpBatchRead, 0, opts.Conns)
}

// RunAudit loads the server behind primary with acknowledged transfers
// until it goes down, reaches the survivor — the same node restarted when
// standby is nil, the promoted standby otherwise — and verifies that it
// kept every acked commit. It returns the report alongside any verification
// failure; a non-nil error means survival was NOT proven.
func RunAudit(primary, standby Dialer, opts AuditOptions) (*AuditReport, error) {
	opts = opts.withDefaults()
	rep := &AuditReport{Conns: opts.Conns}

	baseline, err := auditSetup(primary, standby != nil, opts, rep)
	if err != nil {
		return rep, err
	}
	keys := rep.Keys

	// Load phase: conn i transfers 1 from its sink key into its marker key,
	// counting only acknowledged commits, until the server dies (transport
	// or op-level error — ErrClosed on a graceful close counts too). Under
	// -repl-ack quorum every count here was follower-acked before the
	// client saw OK.
	rep.PerConn = make([]uint64, opts.Conns)
	start := time.Now()
	deadline := start.Add(opts.Window)
	var wg sync.WaitGroup
	died := make([]bool, opts.Conns)
	for i := 0; i < opts.Conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := primary()
			if err != nil {
				died[id] = true
				return
			}
			defer c.Close()
			req := Request{Op: OpTransfer, Key: keys/2 + id, Key2: id, Val: 1}
			var resp Response
			for time.Now().Before(deadline) {
				if err := c.Do(&req, &resp); err != nil || resp.Err != "" {
					died[id] = true
					return
				}
				rep.PerConn[id]++
			}
		}(i)
	}
	wg.Wait()
	rep.DownAfter = time.Since(start)
	for i, d := range died {
		rep.Acked += rep.PerConn[i]
		if !d {
			return rep, fmt.Errorf("stmserve: audit: server still up after %v window (conn %d never saw it die)", opts.Window, i)
		}
	}

	// Reach the survivor.
	reStart := time.Now()
	survivor, accept := primary, pinged
	if standby != nil {
		survivor, accept = standby, promoted
	}
	c, err := reach(survivor, opts.Timeout, accept)
	if err != nil {
		return rep, err
	}
	defer c.Close()
	rep.ReconnectAfter = time.Since(reStart)

	// Verification. The survivor must present the same keyspace...
	keys2, _, err := infoCall(c)
	if err != nil {
		return rep, err
	}
	if keys2 != keys {
		return rep, fmt.Errorf("stmserve: audit: keyspace changed across the death: %d → %d", keys, keys2)
	}

	// ...reflect every acknowledged transfer (read-your-committed-writes:
	// marker i must hold at least baseline + acked; it may hold more when a
	// commit's ack was lost in flight as the server died)...
	markers, err := readRange(c, OpBatchRead, 0, opts.Conns)
	if err != nil {
		return rep, err
	}
	for i, got := range markers {
		if want := baseline[i] + int64(rep.PerConn[i]); got < want {
			return rep, fmt.Errorf("stmserve: audit: conn %d lost acked transfers: marker %d < baseline %d + acked %d",
				i, got, baseline[i], rep.PerConn[i])
		}
	}

	// ...and conserve the keyspace sum (transfers move value, never mint it).
	if !opts.SkipSum {
		const batch = 256
		for lo := 0; lo < keys; lo += batch {
			vals, err := readRange(c, OpSnapshot, lo, min(lo+batch, keys))
			if err != nil {
				return rep, err
			}
			for _, v := range vals {
				rep.Sum += v
			}
		}
		if rep.Sum != rep.WantSum {
			return rep, fmt.Errorf("stmserve: audit: conserved sum violated: %d != %d over %d keys",
				rep.Sum, rep.WantSum, keys)
		}
	}

	// Telemetry proof: did the survivor get its state the intended way — a
	// WAL replay on the restarted node, shipped commits on the promoted one?
	st, err := StatsCall(c)
	if err != nil {
		return rep, err
	}
	if standby == nil {
		if st.Durability != nil {
			rep.RecoveredCommits = st.Durability.RecoveredCommits
			rep.RecoveredSeq = st.Durability.RecoveredSeq
		}
		if opts.ExpectRecovered && st.Durability == nil {
			return rep, fmt.Errorf("stmserve: audit: restarted server reports no durability stats (engine %s not durable?)", st.Engine)
		}
		if opts.ExpectRecovered && rep.RecoveredCommits == 0 {
			return rep, fmt.Errorf("stmserve: audit: restarted server recovered zero commits (acked %d before the crash)", rep.Acked)
		}
		return rep, nil
	}
	if st.Replication == nil || !st.Replication.Promoted {
		return rep, fmt.Errorf("stmserve: audit: promoted node's stats do not report promotion (replication block %+v)", st.Replication)
	}
	if rep.AppliedSeq = st.Replication.AppendedSeq; rep.AppliedSeq == 0 {
		return rep, fmt.Errorf("stmserve: audit: promoted node replicated zero commits (acked %d before the kill)", rep.Acked)
	}
	return rep, nil
}
