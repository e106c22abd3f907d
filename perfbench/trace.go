package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"stagedb"
	"stagedb/internal/sql"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one operation share a trace id; times are nanoseconds
// since the tracer started.
type span struct {
	Trace  string         `json:"trace"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records s, assigns its id and returns it.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func traceID(r result) string { return fmt.Sprintf("%d.%d", r.stream, r.seq) }

// request records a client.request root span for r with client.first_row
// (send to first row) and client.drain (first row to Done) children.
func (t *tracer) request(r result) {
	if t == nil {
		return
	}
	id := traceID(r)
	attrs := map[string]any{"class": r.class, "rows": r.rows}
	if r.err != nil {
		attrs["error"] = r.err.Error()
	}
	if r.wrong != nil {
		attrs["wrong"] = r.wrong.Error()
	}
	if !r.due.Equal(r.sent) {
		attrs["late_ns"] = int64(r.sent.Sub(r.due))
	}
	root := t.add(span{Trace: id, Name: "client.request", Start: t.ns(r.sent), End: t.ns(r.done), Attrs: attrs})
	t.add(span{Trace: id, Parent: root, Name: "client.first_row", Start: t.ns(r.sent), End: t.ns(r.first)})
	t.add(span{Trace: id, Parent: root, Name: "client.drain", Start: t.ns(r.first), End: t.ns(r.done)})
}

// sample times a direct sql.Parse of the statement r ran and, for a
// SELECT, a DB.Explain of it, recording both as spans of r's trace. It
// returns the parse time and, when planned is set, the planning time
// (Explain minus parse).
func (t *tracer) sample(db *stagedb.DB, r result, o op) (parse, plan time.Duration, planned bool) {
	id := traceID(r)
	a := time.Now()
	_, _ = sql.Parse(o.sql) // the statement already ran; only the time matters
	parse = time.Since(a)
	t.add(span{Trace: id, Name: "sql.Parse", Start: t.ns(a), End: t.ns(a.Add(parse))})
	if !o.query {
		return parse, 0, false // Explain takes SELECT only
	}
	b := time.Now()
	_, err := db.Explain(o.sql)
	explain := time.Since(b)
	s := span{Trace: id, Name: "DB.Explain", Start: t.ns(b), End: t.ns(b.Add(explain))}
	if err != nil {
		s.Attrs = map[string]any{"error": err.Error()}
		t.add(s)
		return parse, 0, false
	}
	t.add(s)
	return parse, explain - parse, true
}

// counters marks a window edge with every counter reading as attributes.
func (t *tracer) counters(name string, c counters) {
	if t == nil {
		return
	}
	attrs := make(map[string]any)
	for k, v := range c.flat() {
		attrs[k] = v
	}
	at := t.ns(c.at)
	t.add(span{Trace: "counters", Name: name, Start: at, End: at, Attrs: attrs})
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	return errors.Join(err, f.Close())
}

// count reports how many spans are recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
