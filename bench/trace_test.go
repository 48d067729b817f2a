package main

import (
	"testing"

	"repro/internal/engine"
)

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end int64
		kids       [][2]int64
		want       int64
	}{
		{"no children", 100, 200, nil, 100},
		{"one child", 100, 200, [][2]int64{{120, 150}}, 70},
		{"two disjoint children, unsorted", 100, 200, [][2]int64{{160, 190}, {110, 120}}, 60},
		{"overlapping children count once", 100, 200, [][2]int64{{110, 150}, {140, 170}}, 40},
		{"nested child adds nothing", 100, 200, [][2]int64{{110, 180}, {120, 130}}, 30},
		{"child sticking out is clipped", 100, 200, [][2]int64{{90, 120}, {190, 250}}, 70},
		{"children cover everything", 100, 200, [][2]int64{{100, 160}, {160, 200}}, 0},
		{"child outside the parent", 100, 200, [][2]int64{{300, 400}}, 100},
	} {
		if got := selfTime(tc.start, tc.end, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAttributeSubtractsChildren(t *testing.T) {
	// Request 1 went through the wire: driver ⊃ serve ⊃ {engine, write}.
	// Request 2 called the engine directly: driver ⊃ engine.
	spans := []span{
		{layerDriver, 1, 0, 1000},
		{layerServe, 1, 300, 800},
		{layerEngine, 1, 400, 450},
		{layerConnWrite, 1, 500, 780},
		{layerDriver, 2, 2000, 2100},
		{layerEngine, 2, 2010, 2090},
	}
	got := attribute(spans)
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("driver self", got[layerDriver].self, []float64{500, 20})
	check("driver total", got[layerDriver].total, []float64{1000, 100})
	check("serve self", got[layerServe].self, []float64{500 - 50 - 280})
	check("engine total", got[layerEngine].total, []float64{50, 80})
	check("engine self", got[layerEngine].self, []float64{50, 80})
	check("write total", got[layerConnWrite].total, []float64{280})

	recs := spanRecords(spans)
	parent := map[uint64]uint64{}
	for _, r := range recs {
		parent[r.ID] = r.Parent
	}
	id := func(l layer, req uint64) uint64 { return span{layer: l, req: req}.id() }
	for _, tc := range []struct{ child, want uint64 }{
		{id(layerDriver, 1), 0},
		{id(layerServe, 1), id(layerDriver, 1)},
		{id(layerEngine, 1), id(layerServe, 1)},
		{id(layerConnWrite, 1), id(layerServe, 1)},
		{id(layerEngine, 2), id(layerDriver, 2)},
	} {
		if parent[tc.child] != tc.want {
			t.Errorf("parent of span %d = %d, want %d", tc.child, parent[tc.child], tc.want)
		}
	}
}

func TestTracedEngineCountsAndSamples(t *testing.T) {
	base, err := engine.New("norec", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	te := tr.wrapEngine(base)
	cell := te.NewCell(0)
	th := te.Thread(0)
	if _, ok := th.(engine.AttemptCounter); !ok {
		t.Fatal("decorated thread lost engine.AttemptCounter")
	}
	bump := func(tx engine.Txn) error {
		if _, ok := tx.(engine.IntTxn); !ok {
			t.Error("decorated transaction lost engine.IntTxn")
		}
		return engine.Update(tx, cell, func(v int64) int64 { return v + 1 })
	}
	for i := 1; i <= 10; i++ {
		if i%5 == 0 { // the driver samples requests 5 and 10
			tr.cur[0].req.Store(requestID(0, uint64(i)))
		}
		if err := th.Run(bump); err != nil {
			t.Fatal(err)
		}
		tr.cur[0].req.Store(0)
	}
	var got int64
	if err := th.RunReadOnly(func(tx engine.Txn) (err error) {
		got, err = engine.Get[int64](tx, cell)
		return err
	}); err != nil || got != 10 {
		t.Fatalf("cell = %d, %v; want 10", got, err)
	}
	c := te.counts()
	want := opCounts{runs: 10, attempts: 10, roRuns: 1, roAttempts: 1, reads: 11, writes: 10}
	if c != want {
		t.Errorf("counts = %+v, want %+v", c, want)
	}
	spans := tr.spansIn(0, tr.now())
	if len(spans) != 2 || spans[0].req != requestID(0, 5) || spans[1].req != requestID(0, 10) {
		t.Errorf("spans = %+v, want requests 5 and 10", spans)
	}
	// A thread id no driver stream maps to is never sampled.
	far := te.Thread(1 << 16)
	if err := far.Run(bump); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.spansIn(0, tr.now())); n != 2 {
		t.Errorf("housekeeping thread recorded a span: %d spans", n)
	}
}
