package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/server"
)

// opTimeout bounds one operation, so that an engine hang fails the op in
// bounded time instead of stalling the run.
const opTimeout = 30 * time.Second

// op is one generated statement and the check its answer must pass.
type op struct {
	class string
	sql   string
	args  []any
	query bool // a SELECT, streamed through QueryContext; else ExecContext
	// check validates the answer and, once it passes, applies the op to the
	// workload's model. nil marks a statement the oracle cannot classify.
	check func(rows []stagedb.Row, affected int64) error
}

// stream is one client connection's statement source.
type stream struct {
	next  func() op
	rate  float64 // open-loop ops per second; 0 runs closed loop
	reads bool    // its completions count toward ops_per_s
}

// workload is one benchmark input: its schema and rows, its streams, and
// the checks run after the window.
type workload struct {
	name    string
	tables  []string
	rows    int      // rows loaded, over all tables
	load    []string // DDL and INSERTs, generated before any timer starts
	streams []*stream
	// final checks the table totals against the model after the window.
	final func(ctx context.Context, c *client.Conn) error
	// restart, when set, re-verifies every acknowledged write after the
	// database is closed and reopened from its data directory.
	restart func(ctx context.Context, c *client.Conn) error

	warmup        time.Duration // driven before the timed window opens
	classes       []string      // op classes reported as <class>_p50_ms
	readClasses   []string      // classes read_p50_ms covers
	firstRowClass string        // class first_row_p50_ms covers
	p99           bool          // enough samples for p99_ms
}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "oltp":
		return newOLTP(seed), nil
	case "wisc-a":
		return newWiscA(seed), nil
	case "wisc-b-rw":
		return newWiscB(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want oltp, wisc-a or wisc-b-rw)", name)
}

// subSeed derives the k-th independent seed from a workload seed.
func subSeed(seed uint64, k int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + 1
}

// env is a durable database served over loopback by an in-process server.
type env struct {
	dir    string
	db     *stagedb.DB
	srv    *server.Server
	served chan error
}

// openEnv opens (or recovers) the database in dir with default options and
// starts serving it on an ephemeral loopback port.
func openEnv(dir string) (*env, error) {
	db, err := stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	srv, err := server.New(context.Background(), db, server.Options{})
	if err != nil {
		db.Close()
		return nil, err
	}
	e := &env{dir: dir, db: db, srv: srv, served: make(chan error, 1)}
	go func() { e.served <- srv.Serve() }()
	return e, nil
}

// close drains the server, waits for Serve to return, and closes the
// database (final checkpoint).
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	errShut := e.srv.Shutdown(ctx)
	errServe := <-e.served
	return errors.Join(errShut, errServe, e.db.Close())
}

func (e *env) dial(ctx context.Context) (*client.Conn, error) {
	return client.Dial(ctx, e.srv.Addr(), client.Options{})
}

// setup opens a fresh database in dir, loads the workload through one
// client connection, and analyzes its tables. The returned duration is the
// benchmark's setup_s sample.
func (w *workload) setup(dir string) (*env, time.Duration, error) {
	t0 := time.Now()
	e, err := openEnv(dir)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	err = func() error {
		c, err := e.dial(ctx)
		if err != nil {
			return err
		}
		defer c.Close()
		for _, s := range w.load {
			if _, err := c.ExecContext(ctx, s); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
		for _, t := range w.tables {
			if err := e.db.Analyze(t); err != nil {
				return fmt.Errorf("analyze %s: %w", t, err)
			}
		}
		return nil
	}()
	if err != nil {
		return nil, 0, errors.Join(err, e.close())
	}
	return e, time.Since(t0), nil
}

// result is one operation as the client saw it.
type result struct {
	class  string
	stream int
	seq    int       // position in its stream
	due    time.Time // send time, or the schedule slot of an open-loop op
	sent   time.Time
	first  time.Time // first row (completion for statements without rows)
	done   time.Time
	rows   int
	err    error // failed or refused
	wrong  error // answered, but the answer failed its check
}

// latency is the op's end-to-end time. Open-loop ops are timed from when
// they were due, so a stall also charges the ops queued behind it.
func (r result) latency() time.Duration { return r.done.Sub(r.due) }

// do runs one op on c, reading every row, and checks the answer.
func do(ctx context.Context, c *client.Conn, o op) result {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	r := result{class: o.class, sent: time.Now()}
	var got []stagedb.Row
	var affected int64
	if o.query {
		rows, err := c.QueryContext(ctx, o.sql, o.args...)
		if err != nil {
			r.done, r.err = time.Now(), err
			return r
		}
		for rows.Next() {
			if got == nil {
				r.first = time.Now()
			}
			got = append(got, rows.Row())
		}
		r.done = time.Now()
		if err := rows.Close(); err != nil {
			r.err = err
			return r
		}
	} else {
		res, err := c.ExecContext(ctx, o.sql, o.args...)
		r.done = time.Now()
		if err != nil {
			r.err = err
			return r
		}
		got, affected = res.Rows, res.Affected
	}
	if r.first.IsZero() {
		r.first = r.done
	}
	r.rows = len(got)
	if o.check == nil {
		r.wrong = fmt.Errorf("statement outside the oracle: %s", o.sql)
	} else {
		r.wrong = o.check(got, affected)
	}
	return r
}

// run is what one drive of the workload produced.
type run struct {
	results          []result
	winStart, winEnd time.Time
	before, after    counters
	parse, plan      []time.Duration // sampled statements (traced runs only)
	streamHash       []uint64        // hash of each stream's first statements
	streamHashed     []int           // how many statements each hash covers
}

// hashOps is how many leading statements of each stream the determinism
// check compares.
const hashOps = 50

// sampleEvery is how often a traced run also times sql.Parse and
// DB.Explain on the statement it just ran.
const sampleEvery = 8

// drive runs every stream on its own connection for warmup plus seconds
// and reads the counters at the edges of the timed window.
func (w *workload) drive(e *env, warmup, seconds time.Duration, tr *tracer) (*run, error) {
	ctx := context.Background()
	conns := make([]*client.Conn, len(w.streams))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := e.dial(ctx)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	start := time.Now()
	out := &run{winStart: start.Add(warmup), winEnd: start.Add(warmup + seconds)}
	type streamOut struct {
		results     []result
		parse, plan []time.Duration
		hash        uint64
		hashed      int
	}
	outs := make([]streamOut, len(w.streams))
	done := make(chan struct{})
	for i, s := range w.streams {
		go func() {
			defer func() { done <- struct{}{} }()
			so := &outs[i]
			h := fnv.New64a()
			var period time.Duration
			if s.rate > 0 {
				period = time.Duration(float64(time.Second) / s.rate)
			}
			for k := 0; ; k++ {
				due := time.Now()
				if period > 0 {
					due = start.Add(time.Duration(k) * period)
					time.Sleep(time.Until(due))
				}
				if !due.Before(out.winEnd) {
					break
				}
				o := s.next()
				if k < hashOps {
					addStatement(h, o.sql, o.args)
					so.hashed++
				}
				r := do(ctx, conns[i], o)
				r.stream, r.seq = i, k
				r.due = due
				if period == 0 {
					r.due = r.sent // closed loop: due when sent
				}
				so.results = append(so.results, r)
				if tr != nil {
					tr.request(r)
					if k%sampleEvery == 0 {
						p, pl, planned := tr.sample(e.db, r, o)
						so.parse = append(so.parse, p)
						if planned {
							so.plan = append(so.plan, pl)
						}
					}
				}
			}
			so.hash = h.Sum64()
		}()
	}
	time.Sleep(time.Until(out.winStart))
	out.before = readCounters(e.db, e.srv)
	tr.counters("window.start", out.before)
	time.Sleep(time.Until(out.winEnd))
	out.after = readCounters(e.db, e.srv)
	tr.counters("window.end", out.after)
	for range w.streams {
		<-done
	}
	for _, so := range outs {
		out.results = append(out.results, so.results...)
		out.parse = append(out.parse, so.parse...)
		out.plan = append(out.plan, so.plan...)
		out.streamHash = append(out.streamHash, so.hash)
		out.streamHashed = append(out.streamHashed, so.hashed)
	}
	return out, nil
}

// streamHashes generates the first counts[i] statements of each stream i
// without running them, for the same-seed determinism check.
func (w *workload) streamHashes(counts []int) []uint64 {
	var out []uint64
	for i, s := range w.streams {
		h := fnv.New64a()
		for range counts[i] {
			o := s.next()
			addStatement(h, o.sql, o.args)
		}
		out = append(out, h.Sum64())
	}
	return out
}

// addStatement feeds one statement's text and arguments to h.
func addStatement(h hash.Hash64, sqlText string, args []any) {
	fmt.Fprint(h, sqlText, args)
}

// queryAll runs a SELECT and returns every row.
func queryAll(ctx context.Context, c *client.Conn, sqlText string) ([]stagedb.Row, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	res, err := c.ExecContext(ctx, sqlText)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sqlText, err)
	}
	return res.Rows, nil
}

// checkWith runs check on a fresh connection to e.
func checkWith(ctx context.Context, e *env, check func(context.Context, *client.Conn) error) error {
	c, err := e.dial(ctx)
	if err != nil {
		return err
	}
	defer c.Close()
	return check(ctx, c)
}

// versions sums the live and dead heap versions of the tables.
func versions(e *env, tables []string) (dead, live int64, err error) {
	for _, t := range tables {
		l, d, err := e.db.TableVersions(t)
		if err != nil {
			return 0, 0, err
		}
		live, dead = live+l, dead+d
	}
	return dead, live, nil
}
