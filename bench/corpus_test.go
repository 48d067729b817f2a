package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/stmserve"
)

func TestSeedGivesIdenticalCorpus(t *testing.T) {
	serve := func(seed int64, w int) *serveCorpus {
		c, err := encodeRequests(serveMix(workerRand(seed, w), 2048, serveKeys))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := serve(7, 0), serve(7, 0)
	if !bytes.Equal(a.lines, b.lines) || !reflect.DeepEqual(a.off, b.off) || !reflect.DeepEqual(a.kind, b.kind) {
		t.Error("serve corpus differs between two generations from one seed")
	}
	if bytes.Equal(a.lines, serve(8, 0).lines) {
		t.Error("serve corpus does not depend on the seed")
	}
	if bytes.Equal(a.lines, serve(7, 1).lines) {
		t.Error("the two connections replay the same stream")
	}
	if !reflect.DeepEqual(disjointCorpus(7, 0), disjointCorpus(7, 0)) ||
		reflect.DeepEqual(disjointCorpus(7, 0), disjointCorpus(8, 0)) {
		t.Error("disjoint corpus is not a function of the seed")
	}
	x := transferCorpus(workerRand(7, 0), 1000, bankAccounts, bankAuditPct)
	if !reflect.DeepEqual(x, transferCorpus(workerRand(7, 0), 1000, bankAccounts, bankAuditPct)) ||
		reflect.DeepEqual(x, transferCorpus(workerRand(8, 0), 1000, bankAccounts, bankAuditPct)) {
		t.Error("transfer corpus is not a function of the seed")
	}
}

func TestCorporaAreWellFormed(t *testing.T) {
	d := disjointCorpus(3, 1)
	if len(d) != disjointTxs*disjointUpdates {
		t.Fatalf("disjoint corpus has %d indices", len(d))
	}
	for i := 0; i < len(d); i += disjointUpdates {
		seen := map[uint8]bool{}
		for _, o := range d[i : i+disjointUpdates] {
			if o >= disjointObjects || seen[o] {
				t.Fatalf("transaction %d touches object %d twice or out of range", i/disjointUpdates, o)
			}
			seen[o] = true
		}
	}

	audits := 0
	ops := transferCorpus(workerRand(3, 0), 20_000, bankAccounts, bankAuditPct)
	for _, op := range ops {
		if op.audit {
			audits++
		} else if op.from == op.to || op.amount < 1 || int(op.from) >= bankAccounts || int(op.to) >= bankAccounts {
			t.Fatalf("bad transfer %+v", op)
		}
	}
	if audits < 1800 || audits > 2200 {
		t.Errorf("%d audits in 20000 ops, want about 10%%", audits)
	}

	// Every request parses back to what was encoded, the mix is 50/30/20,
	// and nothing in it can fail or change the sum of the keys.
	reqs := serveMix(workerRand(3, 0), 20_000, serveKeys)
	c, err := encodeRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var counts [3]int
	var back stmserve.Request
	for i := range reqs {
		line := c.line(i)
		if line[len(line)-1] != '\n' {
			t.Fatalf("request %d has no newline", i)
		}
		if err := stmserve.ParseRequest(line[:len(line)-1], &back); err != nil {
			t.Fatal(err)
		}
		want := reqs[i]
		if back.Op != want.Op || back.Key != want.Key || back.Key2 != want.Key2 || back.Val != want.Val ||
			(want.Op == stmserve.OpSnapshot && !reflect.DeepEqual(back.Keys, want.Keys)) {
			t.Fatalf("request %d: parsed %+v, encoded %+v", i, back, want)
		}
		switch want.Op {
		case stmserve.OpTransfer:
			if want.Key == want.Key2 {
				t.Fatalf("request %d transfers from a key to itself", i)
			}
		case stmserve.OpSnapshot:
			if len(want.Keys) != serveSnapKeys {
				t.Fatalf("request %d snapshots %d keys", i, len(want.Keys))
			}
		case stmserve.OpRead:
		default:
			t.Fatalf("request %d has op %v", i, want.Op)
		}
		counts[c.kind[i]]++
	}
	for k, want := range [3]int{10_000, 6_000, 4_000} {
		if counts[k] < want*9/10 || counts[k] > want*11/10 {
			t.Errorf("kind %d: %d of 20000 requests, want about %d", k, counts[k], want)
		}
	}
}

// TestManifestMatchesProgram loads the committed BENCHMARK.json the way every
// run does: its workloads are the program's, and no metric is declared twice.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}
