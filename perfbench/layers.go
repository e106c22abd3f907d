package main

import (
	"time"

	"stagedb"
	"stagedb/internal/metrics"
	"stagedb/internal/server"
)

// counters is one reading of every public counter accessor the engine and
// the server expose. The benchmark diffs two readings taken at the edges of
// the timed window; it never reaches inside the engine.
type counters struct {
	at            time.Time
	stages        map[string]metrics.StageSnapshot
	wal           map[string]int64
	mvcc          stagedb.MVCCStats
	share         stagedb.ScanShareStats
	reads, writes uint64
	pages         stagedb.PagePoolStats
	spill         stagedb.SpillStats
	adm           map[string]int64
}

func readCounters(db *stagedb.DB, srv *server.Server) counters {
	c := counters{
		at:     time.Now(),
		stages: make(map[string]metrics.StageSnapshot),
		wal:    db.WALStats(),
		mvcc:   db.MVCCStats(),
		share:  db.ScanShares(),
		pages:  db.PagePoolStats(),
		spill:  db.SpillStats(),
		adm:    srv.AdmissionStats(),
	}
	c.reads, c.writes = db.IOStats()
	for _, s := range db.Stages() {
		c.stages[s.Name] = s
	}
	return c
}

// flat renders a reading as name → value pairs, the form the trace writes
// at the window edges.
func (c counters) flat() map[string]int64 {
	out := map[string]int64{
		"storage.reads":         int64(c.reads),
		"storage.writes":        int64(c.writes),
		"mvcc.commits":          c.mvcc.Commits,
		"mvcc.aborts":           c.mvcc.Aborts,
		"mvcc.conflicts":        c.mvcc.Conflicts,
		"share.starts":          c.share.Starts,
		"share.attaches":        c.share.Attaches,
		"share.pages_decoded":   c.share.PagesDecoded,
		"share.pages_delivered": c.share.PagesDelivered,
		"pagepool.hits":         c.pages.Hits,
		"pagepool.misses":       c.pages.Misses,
		"spill.bytes":           c.spill.SpilledBytes,
	}
	for k, v := range c.wal {
		out["wal."+k] = v
	}
	for k, v := range c.adm {
		out["admission."+k] = v
	}
	for name, s := range c.stages {
		out["stage."+name+".serviced"] = int64(s.Serviced)
		out["stage."+name+".busy_ns"] = int64(s.Busy)
	}
	return out
}

// frontEndStages are the engine's request stages; their service time is
// the part of a client's latency spent inside the engine's front end.
var frontEndStages = []string{"connect", "parse", "optimize", "execute", "disconnect"}

// execStages are the execution engine's operator stages.
var execStages = []string{"fscan", "iscan", "filter", "join", "aggr", "sort", "exec"}

// refusals are the admission counters that answer a query with a refusal.
var refusals = []string{"shed_tenant_quota", "shed_overload", "shed_queue_depth", "rejected_draining"}

// window is what the client saw during the timed window.
type window struct {
	ops      int           // operations completed in the window
	rows     int64         // rows the client received
	service  time.Duration // summed send-to-done latency
	parseUS  float64       // mean direct sql.Parse time of sampled statements
	planUS   float64       // mean DB.Explain minus parse time of sampled SELECTs
	deadLive float64       // dead / live heap versions at the window's end
}

// perLayer derives the per-layer metrics from two counter readings and the
// client's view of the same window. Every metric is per completed operation
// unless its name says otherwise.
func perLayer(a, b counters, w window) map[string]float64 {
	ops := float64(w.ops)
	perOp := func(d int64) float64 { return ratio(float64(d), ops) }
	stage := func(name string) (busy time.Duration, tasks int64) {
		return b.stages[name].Busy - a.stages[name].Busy,
			int64(b.stages[name].Serviced - a.stages[name].Serviced)
	}
	m := map[string]float64{}

	m["client.rows_per_op"] = perOp(w.rows)
	var fe time.Duration
	for _, s := range frontEndStages {
		busy, _ := stage(s)
		fe += busy
	}
	m["server.residual_us_per_op"] = ratio(float64(w.service-fe)/1e3, ops)
	var refused int64
	for _, k := range refusals {
		refused += b.adm[k] - a.adm[k]
	}
	m["server.refused_per_op"] = perOp(refused)

	for _, s := range []string{"parse", "optimize", "execute"} {
		busy, _ := stage(s)
		m["engine."+s+".busy_us_per_op"] = ratio(float64(busy)/1e3, ops)
	}
	m["engine.execute.max_queue"] = float64(b.stages["execute"].MaxQueue)
	m["sql.parse_us"] = w.parseUS
	m["plan.plan_us"] = w.planUS

	for _, s := range execStages {
		busy, tasks := stage(s)
		m["exec."+s+".busy_us_per_op"] = ratio(float64(busy)/1e3, ops)
		m["exec."+s+".tasks_per_op"] = perOp(tasks)
	}
	m["exec.share_fanout"] = ratio(float64(b.share.PagesDelivered-a.share.PagesDelivered),
		float64(b.share.PagesDecoded-a.share.PagesDecoded))
	attaches := b.share.Attaches - a.share.Attaches
	m["exec.share_attach_ratio"] = ratio(float64(attaches), float64(attaches+b.share.Starts-a.share.Starts))
	hits := b.pages.Hits - a.pages.Hits
	m["exec.pagepool_hit_ratio"] = ratio(float64(hits), float64(hits+b.pages.Misses-a.pages.Misses))
	m["exec.spill_bytes_per_op"] = perOp(b.spill.SpilledBytes - a.spill.SpilledBytes)

	m["storage.reads_per_op"] = perOp(int64(b.reads - a.reads))
	m["storage.writes_per_op"] = perOp(int64(b.writes - a.writes))

	syncs := b.wal["syncs"] - a.wal["syncs"]
	m["txn.fsyncs_per_op"] = perOp(syncs)
	m["txn.commits_per_fsync"] = ratio(float64(b.wal["commits"]-a.wal["commits"]), float64(syncs))
	m["txn.log_bytes_per_op"] = perOp(b.wal["synced_bytes"] - a.wal["synced_bytes"])
	m["txn.checkpoints"] = float64(b.wal["checkpoints"] - a.wal["checkpoints"])

	m["mvcc.dead_per_live_end"] = w.deadLive
	m["mvcc.conflicts_per_op"] = perOp(b.mvcc.Conflicts - a.mvcc.Conflicts)
	m["mvcc.aborts_per_op"] = perOp(b.mvcc.Aborts - a.mvcc.Aborts)
	return m
}

// layerNames lists every per-layer metric in report order.
var layerNames = func() []string {
	names := []string{
		"client.rows_per_op",
		"server.residual_us_per_op",
		"server.refused_per_op",
		"engine.parse.busy_us_per_op",
		"engine.optimize.busy_us_per_op",
		"engine.execute.busy_us_per_op",
		"engine.execute.max_queue",
		"sql.parse_us",
		"plan.plan_us",
	}
	for _, s := range execStages {
		names = append(names, "exec."+s+".busy_us_per_op", "exec."+s+".tasks_per_op")
	}
	return append(names,
		"exec.share_fanout",
		"exec.share_attach_ratio",
		"exec.pagepool_hit_ratio",
		"exec.spill_bytes_per_op",
		"storage.reads_per_op",
		"storage.writes_per_op",
		"txn.fsyncs_per_op",
		"txn.commits_per_fsync",
		"txn.log_bytes_per_op",
		"txn.checkpoints",
		"mvcc.dead_per_live_end",
		"mvcc.conflicts_per_op",
		"mvcc.aborts_per_op",
	)
}()
