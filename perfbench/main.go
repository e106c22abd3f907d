// Command perfbench is stagedb's end-to-end benchmark. It starts the
// network server in-process over a durable database on loopback, drives it
// from two client connections, checks every answer against a model of the
// generated data, and reports end-to-end metrics (from an untraced run)
// and per-layer metrics (from a traced run with the same seed).
//
//	go run . --workload oltp --seed 1 --seconds 30 --trace 0
//
// Workloads: oltp, wisc-a, wisc-b-rw, or all (the default), which runs the
// three in turn. Every line but the last is a human-readable report; the
// last is one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans go to a JSON-lines file under --work.
// A wrong answer, a failed check or a failed restart exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var allWorkloads = []string{"oltp", "wisc-a", "wisc-b-rw"}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "all", "oltp, wisc-a, wisc-b-rw or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same rows and statements")
	seconds := flag.Int("seconds", 30, "length of the timed window, in seconds")
	traceFlag := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for data directories and spans")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = allWorkloads
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	// An engine hang must not hold the run past its time limit.
	limit := time.Duration(len(names)) * 170 * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; giving up\n", limit)
		os.Exit(3)
	})

	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, work: *work}
	var reps []*report
	for _, n := range names {
		rep, err := bench(n, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		rep.print(os.Stdout)
		reps = append(reps, rep)
	}
	line, ok := summary(reps, cfg.trace)
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	work    string
}

// setups is how many fresh set-ups an untraced run times; setup_s is their
// median, which one slow disk flush cannot move.
const setups = 3

// metric is one reported figure with the sample count behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report is one workload's outcome.
type report struct {
	workload  string
	seed      uint64
	rows      int
	e2e       []metric
	layers    []metric // traced runs only
	props     []string
	attempted int
	failed    int // errors and refusals in the window
	wrong     int // answers that failed their check, anywhere in the run
	problems  []string
}

func (r *report) correct() bool { return r.wrong == 0 && len(r.problems) == 0 }

func (r *report) print(f io.Writer) {
	fmt.Fprintf(f, "# %s seed=%d rows=%d pool_frames=1024 conns=2 attempted=%d failed=%d wrong=%d\n",
		r.workload, r.seed, r.rows, r.attempted, r.failed, r.wrong)
	for _, p := range r.props {
		fmt.Fprintf(f, "property %s %s\n", r.workload, p)
	}
	for _, m := range r.e2e {
		fmt.Fprintf(f, "e2e %s %s %.6g %s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
	}
	for _, m := range r.layers {
		fmt.Fprintf(f, "layer %s %s %.6g %s\n", r.workload, m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "FAIL %s %s\n", r.workload, p)
	}
}

// jsonMetrics are the end-to-end metrics the final JSON line carries: the
// ones every workload defines. The per-class figures stay in the report.
var jsonMetrics = []string{"setup_s", "ops_per_s", "p95_ms", "read_p50_ms"}

// summary renders the final JSON line. A single workload reports bare
// metric names; several prefix each with the workload.
func summary(reps []*report, traced bool) (string, bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range reps {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed + r.wrong
		prefix := ""
		if len(reps) > 1 {
			prefix = r.workload + "."
		}
		ms := r.layers
		if !traced {
			ms = nil
			for _, m := range r.e2e {
				for _, want := range jsonMetrics {
					if m.name == want {
						ms = append(ms, m)
					}
				}
			}
		}
		for _, m := range ms {
			out.Metrics[prefix+m.name] = val{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), out.Correct
}

// bench runs one workload: untraced for the end-to-end metrics, then, with
// tracing on, again from a fresh set-up with the same seed for the
// per-layer metrics and the tracing overhead.
func bench(name string, cfg config) (*report, error) {
	base := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	n := setups
	if cfg.trace {
		n = 1 // the set-up figure comes from untraced runs
	}
	rep, _, err := pass(name, cfg, filepath.Join(base, "plain"), n, nil)
	if err != nil || !cfg.trace {
		return rep, err
	}
	tr := newTracer()
	traced, layers, err := pass(name, cfg, filepath.Join(base, "traced"), 1, tr)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	untracedOps, tracedOps := find(rep.e2e, "ops_per_s"), find(traced.e2e, "ops_per_s")
	layers = append(layers,
		metric{name: "trace.ops_per_s_ratio", unit: "ratio", value: ratio(tracedOps, untracedOps)},
		metric{name: "trace.spans", unit: "count", value: float64(tr.count())})
	rep.layers = layers
	rep.attempted += traced.attempted
	rep.failed += traced.failed
	rep.wrong += traced.wrong
	rep.problems = append(rep.problems, traced.problems...)
	rep.props = append(rep.props, "spans="+spans)
	return rep, nil
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// pass builds the workload, sets it up the given number of times (keeping
// the last), drives it, and runs every check.
func pass(name string, cfg config, dir string, nsetup int, tr *tracer) (*report, []metric, error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{workload: name, seed: cfg.seed, rows: w.rows}
	var e *env
	var times []float64
	for i := range nsetup {
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		var took time.Duration
		e, took, err = w.setup(d)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		if i < nsetup-1 {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(d)
		}
	}
	r, err := w.drive(e, w.warmup, cfg.seconds, tr)
	if err != nil {
		return nil, nil, errors.Join(err, e.close())
	}
	dead, live, err := versions(e, w.tables)
	if err != nil {
		return nil, nil, errors.Join(err, e.close())
	}
	rep.e2e = append([]metric{{name: "setup_s", unit: "s", value: median(times), n: len(times)}}, w.endToEnd(r)...)
	rep.attempted, _ = r.counts()
	for _, x := range r.results {
		if r.inWindow(x) && x.err != nil {
			rep.failed++
		}
		if x.wrong != nil {
			if rep.wrong < 5 {
				rep.problems = append(rep.problems, "wrong answer: "+x.wrong.Error())
			}
			rep.wrong++
		}
	}

	// Same seed, same statements: a second instance must generate what
	// this run sent.
	fresh, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, nil, errors.Join(err, e.close())
	}
	want := fresh.streamHashes(r.streamHashed)
	same := true
	for i := range want {
		same = same && want[i] == r.streamHash[i]
	}
	rep.props = append(rep.props, fmt.Sprintf("same_seed_same_statements=%v", same))
	if !same {
		rep.problems = append(rep.problems, "the same seed generated a different statement stream")
	}
	layers := perLayer(r.before, r.after, r.window(dead, live))
	rep.props = append(rep.props, w.property(layers["storage.reads_per_op"]))

	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()
	if err := checkWith(ctx, e, w.final); err != nil {
		rep.problems = append(rep.problems, "final check: "+err.Error())
	}
	if err := e.close(); err != nil {
		return nil, nil, err
	}
	if w.restart != nil {
		reopened, err := openEnv(e.dir)
		if err != nil {
			rep.problems = append(rep.problems, "restart: "+err.Error())
		} else {
			if err := checkWith(ctx, reopened, w.restart); err != nil {
				rep.problems = append(rep.problems, "restart check: "+err.Error())
			} else {
				rep.props = append(rep.props, "restart_check=passed")
			}
			if err := reopened.close(); err != nil {
				return nil, nil, err
			}
		}
	}
	return rep, sortedMetrics(layers), nil
}

// property reports the working-set property the workload is defined by:
// wisc-a must read from the store in steady state, oltp must not.
func (w *workload) property(readsPerOp float64) string {
	switch w.name {
	case "wisc-a":
		return fmt.Sprintf("larger_than_pool=%v (storage.reads_per_op=%.4g)", readsPerOp > 0, readsPerOp)
	case "oltp":
		return fmt.Sprintf("fits_in_pool=%v (storage.reads_per_op=%.4g)", readsPerOp == 0, readsPerOp)
	}
	return fmt.Sprintf("storage.reads_per_op=%.4g", readsPerOp)
}

func sortedMetrics(m map[string]float64) []metric {
	var out []metric
	for _, name := range layerNames {
		out = append(out, metric{name: name, unit: layerUnit(name), value: m[name]})
	}
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_us_per_op"):
		return "us/op"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_op"):
		return "1/op"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_fanout"),
		strings.HasSuffix(name, "_per_fsync"), strings.HasSuffix(name, "_per_live_end"):
		return "ratio"
	}
	return "count"
}
