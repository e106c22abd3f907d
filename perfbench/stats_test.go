package main

import (
	"testing"
	"time"

	"stagedb"
	"stagedb/internal/metrics"
)

func ms(xs ...float64) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x * float64(time.Millisecond))
	}
	return out
}

func TestPercentileNearestRankWithCount(t *testing.T) {
	samples := ms(5, 1, 4, 2, 3, 10, 9, 8, 7, 6)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {1, 1}} {
		got := percentile(samples, c.p)
		if got.ms != c.want || got.n != len(samples) {
			t.Errorf("p%v = %v (n=%d), want %v (n=%d)", c.p, got.ms, got.n, c.want, len(samples))
		}
	}
	if got := percentile(nil, 50); got != (pct{}) {
		t.Errorf("empty input: %+v, want zero", got)
	}
	if samples[0] != 5*time.Millisecond {
		t.Error("percentile reordered its input")
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over zero = %v, want 0", r)
	}
}

// TestWindowAndEndToEnd checks that only ops completing inside the window
// count, that failures and wrong answers count against attempted but not
// in latency, and that open-loop ops are timed from when they were due.
func TestWindowAndEndToEnd(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d float64) time.Time { return t0.Add(time.Duration(d * float64(time.Second))) }
	w := &workload{
		streams:       []*stream{{reads: true}, {rate: 10}},
		classes:       []string{"select", "update"},
		readClasses:   []string{"select"},
		firstRowClass: "select",
	}
	r := &run{winStart: at(1), winEnd: at(3), results: []result{
		{class: "select", due: at(0.5), sent: at(0.5), first: at(0.6), done: at(0.9), rows: 1},   // warm-up
		{class: "select", due: at(1.0), sent: at(1.0), first: at(1.01), done: at(1.02), rows: 1}, // 20 ms
		{class: "select", due: at(2.0), sent: at(2.0), first: at(2.01), done: at(2.04), rows: 3}, // 40 ms
		{class: "select", due: at(2.5), sent: at(2.5), done: at(2.6), err: stagedb.ErrAdmissionDenied},
		{class: "update", stream: 1, due: at(1.5), sent: at(1.6), first: at(1.7), done: at(1.7)}, // 200 ms from due
		{class: "update", stream: 1, due: at(2.9), sent: at(2.9), first: at(3.1), done: at(3.1)}, // after
	}}
	if a, f := r.counts(); a != 4 || f != 1 {
		t.Fatalf("counts = %d attempted, %d failed; want 4, 1", a, f)
	}
	got := map[string]metric{}
	for _, m := range w.endToEnd(r) {
		got[m.name] = m
	}
	check := func(name string, value float64, n int) {
		t.Helper()
		m := got[name]
		if d := m.value - value; d > 1e-3 || d < -1e-3 || m.n != n { // float seconds round to the ns
			t.Errorf("%s = %v (n=%d), want %v (n=%d)", name, m.value, m.n, value, n)
		}
	}
	check("ops_per_s", 1, 2) // two successful reader ops in a 2 s window
	check("error_frac", 0.25, 4)
	check("select_p50_ms", 20, 2)
	check("first_row_p50_ms", 10, 2)
	check("update_p50_ms", 200, 1)
	check("p95_ms", 200, 3)
	check("late_p95_ms", 100, 1)

	win := r.window(10, 40)
	if win.ops != 4 || win.rows != 4 || win.deadLive != 0.25 {
		t.Errorf("window = %+v", win)
	}
}

// TestPerLayerDeltas checks that per-layer metrics are differences of two
// counter readings divided by the ops in the window.
func TestPerLayerDeltas(t *testing.T) {
	stages := func(parseBusy, fscanBusy time.Duration, fscanTasks, maxQ int) map[string]metrics.StageSnapshot {
		return map[string]metrics.StageSnapshot{
			"parse":   {Name: "parse", Busy: parseBusy},
			"execute": {Name: "execute", MaxQueue: maxQ},
			"fscan":   {Name: "fscan", Busy: fscanBusy, Serviced: fscanTasks},
		}
	}
	a := counters{
		stages: stages(time.Millisecond, 0, 0, 1),
		wal:    map[string]int64{"syncs": 10, "commits": 10, "synced_bytes": 1000, "checkpoints": 1},
		share:  stagedb.ScanShareStats{Starts: 1, PagesDecoded: 100, PagesDelivered: 100},
		pages:  stagedb.PagePoolStats{Hits: 5},
		reads:  7,
		adm:    map[string]int64{"shed_queue_depth": 1},
	}
	b := counters{
		stages: stages(3*time.Millisecond, 4*time.Millisecond, 8, 6),
		wal:    map[string]int64{"syncs": 14, "commits": 22, "synced_bytes": 1400, "checkpoints": 2},
		share:  stagedb.ScanShareStats{Starts: 2, Attaches: 3, PagesDecoded: 200, PagesDelivered: 400},
		pages:  stagedb.PagePoolStats{Hits: 14, Misses: 1},
		reads:  47,
		mvcc:   stagedb.MVCCStats{Conflicts: 2},
		adm:    map[string]int64{"shed_queue_depth": 3},
	}
	m := perLayer(a, b, window{ops: 4, rows: 8, service: 10 * time.Millisecond, deadLive: 0.5})
	want := map[string]float64{
		"client.rows_per_op":          2,
		"server.residual_us_per_op":   2000, // (10 ms - 2 ms parse) / 4
		"server.refused_per_op":       0.5,
		"engine.parse.busy_us_per_op": 500,
		"engine.execute.max_queue":    6,
		"exec.fscan.busy_us_per_op":   1000,
		"exec.fscan.tasks_per_op":     2,
		"exec.join.tasks_per_op":      0,
		"exec.share_fanout":           3,
		"exec.share_attach_ratio":     0.75,
		"exec.pagepool_hit_ratio":     0.9,
		"storage.reads_per_op":        10,
		"txn.fsyncs_per_op":           1,
		"txn.commits_per_fsync":       3,
		"txn.log_bytes_per_op":        100,
		"txn.checkpoints":             1,
		"mvcc.conflicts_per_op":       0.5,
		"mvcc.dead_per_live_end":      0.5,
	}
	for name, v := range want {
		if d := m[name] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	for _, name := range layerNames {
		if _, ok := m[name]; !ok {
			t.Errorf("perLayer does not compute %s", name)
		}
	}
	if len(m) != len(layerNames) {
		t.Errorf("perLayer computes %d metrics, layerNames lists %d", len(m), len(layerNames))
	}
}
