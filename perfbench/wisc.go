package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/vclock"
	gen "stagedb/internal/workload"
)

// Wisconsin sizes. wisc-a's 200k-row table is about 1.3x the default
// buffer pool, so its scans read pages from the store; wisc-b-rw's two
// 10k-row tables fit.
const (
	wiscARows = 200000
	wiscBRows = 10000
	wiscBatch = 500
	// writeRate is wisc-b-rw's open-loop writer rate, in updates per second.
	writeRate = 25
)

// wiscTable is the oracle's copy of one generated Wisconsin table: row i
// has unique2 = i and unique1 = u1[i]; every other column derives from
// unique1 as workload.WisconsinRows defines it. The aggregates the
// Workload A scans ask for are computed once, up front, so that checking
// an answer costs the client almost nothing.
type wiscTable struct {
	name string
	u1   []int

	byHundred [100]struct{ n, lo, hi int64 } // COUNT, MIN, MAX(unique1) per hundred
	byTwenty  [20][10]struct{ n, sum int64 } // COUNT, SUM(unique1) per (twenty, ten)
	hundreds  int64                          // SUM(hundred)
}

// newWiscTable re-derives the rows workload.WisconsinRows generates for
// (n, seed): unique1 is the seeded permutation.
func newWiscTable(name string, n int, seed uint64) *wiscTable {
	t := &wiscTable{name: name, u1: vclock.NewRNG(seed).Perm(n)}
	for i := range t.byHundred {
		t.byHundred[i].lo = math.MaxInt64
	}
	for _, u := range t.u1 {
		h := &t.byHundred[u%100]
		h.n++
		h.lo, h.hi = min(h.lo, int64(u)), max(h.hi, int64(u))
		g := &t.byTwenty[u%20][u%10]
		g.n++
		g.sum += int64(u)
		t.hundreds += int64(u % 100)
	}
	return t
}

// stringU is the Wisconsin string column of unique1 value v.
func stringU(v int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	b := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		b[i] = letters[v%26]
		v /= 26
	}
	return string(b)
}

var (
	reBetween = regexp.MustCompile(`unique2 BETWEEN (\d+) AND (\d+)`)
	reHundred = regexp.MustCompile(`WHERE hundred = (\d+)`)
	reTwenty  = regexp.MustCompile(`WHERE twenty = (\d+) GROUP BY ten`)
	reFour    = regexp.MustCompile(`WHERE a\.four = (\d+)`)
	reBTwenty = regexp.MustCompile(`WHERE b\.twenty = (\d+) GROUP BY a\.ten`)
)

func atoiMatch(re *regexp.Regexp, s string) ([]int, bool) {
	m := re.FindStringSubmatch(s)
	if m == nil {
		return nil, false
	}
	out := make([]int, len(m)-1)
	for i, g := range m[1:] {
		out[i], _ = strconv.Atoi(g) // the pattern matched digits only
	}
	return out, true
}

// aOp classifies one Workload A query and attaches its oracle.
func (t *wiscTable) aOp(sqlText string) op {
	if g, ok := atoiMatch(reBetween, sqlText); ok {
		lo, hi := g[0], g[1]
		return op{class: "range", query: true, sql: sqlText, check: func(rows []stagedb.Row, _ int64) error {
			return t.checkRange(rows, lo, hi)
		}}
	}
	if g, ok := atoiMatch(reHundred, sqlText); ok {
		h := g[0]
		return op{class: "scan", query: true, sql: sqlText, check: func(rows []stagedb.Row, _ int64) error {
			w := t.byHundred[h]
			if len(rows) != 1 || rows[0][0].Int() != w.n || rows[0][1].Int() != w.lo || rows[0][2].Int() != w.hi {
				return fmt.Errorf("hundred = %d: got %v, want [%d %d %d]", h, rows, w.n, w.lo, w.hi)
			}
			return nil
		}}
	}
	if g, ok := atoiMatch(reTwenty, sqlText); ok {
		tw := g[0]
		return op{class: "scan", query: true, sql: sqlText, check: func(rows []stagedb.Row, _ int64) error {
			groups := 0
			for _, g := range t.byTwenty[tw] {
				if g.n > 0 {
					groups++
				}
			}
			if len(rows) != groups {
				return fmt.Errorf("twenty = %d: %d groups, want %d", tw, len(rows), groups)
			}
			for _, r := range rows {
				ten := r[0].Int()
				if ten < 0 || ten > 9 || t.byTwenty[tw][ten].n == 0 {
					return fmt.Errorf("twenty = %d: unexpected group %v", tw, r)
				}
				g := t.byTwenty[tw][ten]
				want := float64(g.sum) / float64(g.n)
				if math.Abs(r[1].Float()-want) > 1e-9*math.Max(1, want) {
					return fmt.Errorf("twenty = %d: group %v, want avg %g", tw, r, want)
				}
			}
			return nil
		}}
	}
	return op{class: "unknown", sql: sqlText}
}

// checkRange checks a unique2 BETWEEN lo AND hi answer: exactly the rows
// lo..hi, each with its unique1 and string column.
func (t *wiscTable) checkRange(rows []stagedb.Row, lo, hi int) error {
	want := append([]int(nil), t.u1[lo:hi+1]...)
	sort.Ints(want)
	got := make([]int, len(rows))
	for i, r := range rows {
		got[i] = int(r[0].Int())
		if r[1].Text() != stringU(got[i]) {
			return fmt.Errorf("range %d..%d: row %v has the wrong string", lo, hi, r)
		}
	}
	sort.Ints(got)
	if len(got) != len(want) {
		return fmt.Errorf("range %d..%d: %d rows, want %d", lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("range %d..%d: unique1 %d where %d belongs", lo, hi, got[i], want[i])
		}
	}
	return nil
}

// joinOracle holds the answers of every Workload B join over a (wisc) and
// b (wisc2), computed once from the generated rows.
type joinOracle struct {
	byFour   [4]int64      // COUNT(*) of a JOIN b ON unique1 per a.four
	byTwenty [20][10]int64 // COUNT(*) of a JOIN b ON unique2 per (b.twenty, a.ten)
}

func newJoinOracle(a, b *wiscTable) *joinOracle {
	j := &joinOracle{}
	inB := make(map[int]int64, len(b.u1))
	for _, u := range b.u1 {
		inB[u]++
	}
	for _, u := range a.u1 {
		j.byFour[u%4] += inB[u]
	}
	for i := range min(len(a.u1), len(b.u1)) {
		j.byTwenty[b.u1[i]%20][a.u1[i]%10]++
	}
	return j
}

// op classifies one Workload B join and attaches its oracle.
func (j *joinOracle) op(sqlText string) op {
	if g, ok := atoiMatch(reFour, sqlText); ok {
		f := g[0]
		return op{class: "join", query: true, sql: sqlText, check: func(rows []stagedb.Row, _ int64) error {
			if len(rows) != 1 || rows[0][0].Int() != j.byFour[f] {
				return fmt.Errorf("join four = %d: got %v, want %d", f, rows, j.byFour[f])
			}
			return nil
		}}
	}
	if g, ok := atoiMatch(reBTwenty, sqlText); ok {
		tw := g[0]
		return op{class: "join", query: true, sql: sqlText, check: func(rows []stagedb.Row, _ int64) error {
			var want [][2]int64
			for ten, n := range j.byTwenty[tw] {
				if n > 0 {
					want = append(want, [2]int64{int64(ten), n})
				}
			}
			if len(rows) != len(want) {
				return fmt.Errorf("join twenty = %d: %d groups, want %d", tw, len(rows), len(want))
			}
			for i, r := range rows {
				if r[0].Int() != want[i][0] || r[1].Int() != want[i][1] {
					return fmt.Errorf("join twenty = %d: row %d is %v, want %v", tw, i, r, want[i])
				}
			}
			return nil
		}}
	}
	return op{class: "unknown", sql: sqlText}
}

// loadWisc appends a table's DDL and generated INSERTs to w's load script.
func (w *workload) loadWisc(t *wiscTable, seed uint64) {
	w.tables = append(w.tables, t.name)
	w.load = append(w.load, gen.WisconsinDDL(t.name))
	w.load = append(w.load, gen.WisconsinRows(t.name, len(t.u1), seed, wiscBatch)...)
}

// newWiscA builds wisc-a: the paper's Workload A (short range selections
// and aggregating full scans) from two closed-loop streams with distinct
// seeds over one 200k-row table. Read-only.
func newWiscA(seed uint64) *workload {
	t := newWiscTable("wisc", wiscARows, seed)
	w := &workload{name: "wisc-a", rows: wiscARows, warmup: 2 * time.Second,
		classes: []string{"range", "scan"}, readClasses: []string{"range", "scan"}, firstRowClass: "range"}
	w.loadWisc(t, seed)
	for i := 0; i < 2; i++ {
		g := gen.NewWorkloadA(t.name, wiscARows, subSeed(seed, i+1))
		w.streams = append(w.streams, &stream{reads: true,
			next: func() op { return t.aOp(g.Next()) }})
	}
	w.final = func(ctx context.Context, c *client.Conn) error {
		return checkHundredSum(ctx, c, t, 0)
	}
	return w
}

// newWiscB builds wisc-b-rw: Workload B joins over two memory-resident
// tables on one closed-loop connection, while the other connection updates
// a column no join reads at a fixed open-loop rate, alternating tables.
func newWiscB(seed uint64) *workload {
	a := newWiscTable("wisc", wiscBRows, seed)
	b := newWiscTable("wisc2", wiscBRows, subSeed(seed, 100))
	w := &workload{name: "wisc-b-rw", rows: 2 * wiscBRows, warmup: time.Second,
		classes: []string{"join", "update"}, readClasses: []string{"join"}, firstRowClass: "join"}
	w.loadWisc(a, seed)
	w.loadWisc(b, subSeed(seed, 100))
	j := newJoinOracle(a, b)
	g := gen.NewWorkloadB(a.name, wiscBRows, subSeed(seed, 1))
	w.streams = append(w.streams, &stream{reads: true,
		next: func() op { return j.op(g.Next()) }})

	rng := vclock.NewRNG(subSeed(seed, 2))
	var acked [2]int64 // read by final only after every stream has stopped
	n := 0
	w.streams = append(w.streams, &stream{rate: writeRate, next: func() op {
		i := n % 2
		n++
		key := rng.Intn(wiscBRows)
		table := []*wiscTable{a, b}[i].name
		return op{class: "update", sql: "UPDATE " + table + " SET hundred = hundred + 1 WHERE unique2 = ?", args: []any{key},
			check: func(_ []stagedb.Row, affected int64) error {
				if affected != 1 {
					return fmt.Errorf("update %s unique2 %d: %d rows affected, want 1", table, key, affected)
				}
				acked[i]++
				return nil
			}}
	}})
	w.final = func(ctx context.Context, c *client.Conn) error {
		for i, t := range []*wiscTable{a, b} {
			if err := checkHundredSum(ctx, c, t, acked[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return w
}

// checkHundredSum checks the row count and that SUM(hundred) is the loaded
// sum plus the acknowledged increments.
func checkHundredSum(ctx context.Context, c *client.Conn, t *wiscTable, acked int64) error {
	rows, err := queryAll(ctx, c, "SELECT COUNT(*), SUM(hundred) FROM "+t.name)
	if err != nil {
		return err
	}
	return t.checkSum(rows, acked)
}

// checkSum checks a SELECT COUNT(*), SUM(hundred) answer.
func (t *wiscTable) checkSum(rows []stagedb.Row, acked int64) error {
	want := t.hundreds + acked
	if len(rows) != 1 || rows[0][0].Int() != int64(len(t.u1)) || rows[0][1].Int() != want {
		return fmt.Errorf("%s totals: got %v, want [%d %d] (%d acknowledged updates)", t.name, rows, len(t.u1), want, acked)
	}
	return nil
}
