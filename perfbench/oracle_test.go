package main

import (
	"context"
	"strings"
	"testing"

	"stagedb"
	"stagedb/internal/value"
	gen "stagedb/internal/workload"
)

// loadTiny loads a small Wisconsin table into db and returns its oracle.
func loadTiny(t *testing.T, db *stagedb.DB, name string, n int, seed uint64) *wiscTable {
	t.Helper()
	if _, err := db.Exec(gen.WisconsinDDL(name)); err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.WisconsinRows(name, n, seed, 100) {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return newWiscTable(name, n, seed)
}

// answer runs o on the embedded engine and applies its check.
func answer(t *testing.T, db *stagedb.DB, o op) ([]stagedb.Row, error) {
	t.Helper()
	res, err := db.Exec(o.sql, o.args...)
	if err != nil {
		t.Fatalf("%s: %v", o.sql, err)
	}
	return res.Rows, o.check(res.Rows, res.Affected)
}

// TestWisconsinOracles runs generated Workload A and B statements on a tiny
// dataset: the engine's answers must pass, and a corrupted answer must not.
func TestWisconsinOracles(t *testing.T) {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := loadTiny(t, db, "wisc", 400, 7)
	b := loadTiny(t, db, "wisc2", 400, 8)

	ga := gen.NewWorkloadA("wisc", 400, 9)
	classes := map[string]int{}
	for range 60 {
		o := a.aOp(ga.Next())
		classes[o.class]++
		rows, err := answer(t, db, o)
		if err != nil {
			t.Fatalf("%s: %v", o.sql, err)
		}
		bad := corrupt(rows)
		if err := o.check(bad, 0); err == nil {
			t.Errorf("%s: corrupted answer %v passed", o.sql, bad)
		}
	}
	if classes["range"] == 0 || classes["scan"] == 0 || classes["unknown"] != 0 {
		t.Errorf("Workload A classes %v", classes)
	}

	j := newJoinOracle(a, b)
	gb := gen.NewWorkloadB("wisc", 400, 10)
	for range 20 {
		o := j.op(gb.Next())
		if o.class != "join" {
			t.Fatalf("unclassified: %s", o.sql)
		}
		rows, err := answer(t, db, o)
		if err != nil {
			t.Fatalf("%s: %v", o.sql, err)
		}
		if err := o.check(corrupt(rows), 0); err == nil {
			t.Errorf("%s: corrupted answer passed", o.sql)
		}
	}

	if err := answerSum(db, a, 0); err != nil {
		t.Error(err)
	}
	if _, err := db.Exec("UPDATE wisc SET hundred = hundred + 1 WHERE unique2 = 3"); err != nil {
		t.Fatal(err)
	}
	if err := answerSum(db, a, 0); err == nil {
		t.Error("an unacknowledged update passed the SUM(hundred) check")
	}
	if err := answerSum(db, a, 1); err != nil {
		t.Error(err)
	}
}

func answerSum(db *stagedb.DB, t *wiscTable, acked int64) error {
	res, err := db.Exec("SELECT COUNT(*), SUM(hundred) FROM " + t.name)
	if err != nil {
		return err
	}
	return t.checkSum(res.Rows, acked)
}

// corrupt returns a copy of rows with the last row's last integer (or
// float) column changed, or with a row dropped when there is no number.
func corrupt(rows []stagedb.Row) []stagedb.Row {
	out := make([]stagedb.Row, len(rows))
	copy(out, rows)
	if len(out) == 0 {
		return []stagedb.Row{{stagedb.Value{}}}
	}
	last := append(stagedb.Row(nil), out[len(out)-1]...)
	for i := len(last) - 1; i >= 0; i-- {
		if v, ok := bump(last[i]); ok {
			last[i] = v
			out[len(out)-1] = last
			return out
		}
	}
	return out[:len(out)-1]
}

// TestOLTPOracleAndRestart drives the oltp streams against a durable
// server, then checks the totals and, after a reopen, every row; a write
// behind the model's back must fail the restart check.
func TestOLTPOracleAndRestart(t *testing.T) {
	w := newOLTP(3)
	e, _, err := w.setup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	classes := map[string]int{}
	for i, s := range w.streams {
		c, err := e.dial(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for range 200 {
			o := s.next()
			classes[o.class]++
			if r := do(ctx, c, o); r.err != nil || r.wrong != nil {
				t.Fatalf("stream %d %s %v: %v %v", i, o.sql, o.args, r.err, r.wrong)
			}
		}
		c.Close()
	}
	if classes["select"] == 0 || classes["update"] == 0 || classes["insert"] == 0 {
		t.Errorf("oltp classes %v", classes)
	}
	if err := checkWith(ctx, e, w.final); err != nil {
		t.Fatal(err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	e, err = openEnv(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := checkWith(ctx, e, w.restart); err != nil {
		t.Fatalf("restart check: %v", err)
	}
	if _, err := e.db.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	err = checkWith(ctx, e, w.restart)
	if err == nil || !strings.Contains(err.Error(), "acct") {
		t.Errorf("a write the model never saw passed the restart check: %v", err)
	}
}

// TestSameSeedSameStatements checks the determinism property, and that
// another seed changes the streams. wisc-a is left out only because its
// 200k-row load script is slow to build; every run checks it as well.
func TestSameSeedSameStatements(t *testing.T) {
	for _, name := range []string{"oltp", "wisc-b-rw"} {
		a, _ := newWorkload(name, 11)
		b, _ := newWorkload(name, 11)
		c, _ := newWorkload(name, 12)
		n := []int{hashOps, hashOps}
		ha, hb, hc := a.streamHashes(n), b.streamHashes(n), c.streamHashes(n)
		for i := range ha {
			if ha[i] != hb[i] {
				t.Errorf("%s stream %d: same seed, different statements", name, i)
			}
			if ha[i] == hc[i] {
				t.Errorf("%s stream %d: another seed, same statements", name, i)
			}
		}
	}
}

func bump(v stagedb.Value) (stagedb.Value, bool) {
	switch v.Type() {
	case value.Int:
		return value.NewInt(v.Int() + 1), true
	case value.Float:
		return value.NewFloat(v.Float() + 1), true
	}
	return v, false
}
