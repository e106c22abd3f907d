package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// dmlTable creates t(id PK, k secondary-indexed, v, s) with n rows.
func dmlTable(t *testing.T, db *DB, n int) *Session {
	t.Helper()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT, s TEXT)")
	mustExec(t, s, "CREATE INDEX t_k ON t (k)")
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 's%d')", i, i%17, i*3, i%5))
	}
	return s
}

func tableRows(t *testing.T, s *Session) []string {
	t.Helper()
	res := mustExec(t, s, "SELECT id, k, v, s FROM t ORDER BY id, k, v, s")
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

func explainTarget(t *testing.T, db *DB, q string) string {
	t.Helper()
	out, err := db.ExplainTarget(sql.MustParse(q))
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	return out
}

// randomDML draws one UPDATE or DELETE whose WHERE covers the access-path
// shapes the planner distinguishes: key equality, ranges with inclusive and
// strict bounds, BETWEEN, a reversed comparison, a residual conjunct, the
// secondary index, a NULL key, and non-indexed predicates.
func randomDML(rng *rand.Rand, n int) (q string, indexed bool) {
	c := rng.Intn(n + 20)
	wheres := []struct {
		w       string
		indexed bool
	}{
		{fmt.Sprintf("id = %d", c), true},
		{fmt.Sprintf("%d = id", c), true},
		{fmt.Sprintf("id < %d", c/4), true},
		{fmt.Sprintf("id > %d", n-c/4), true},
		{fmt.Sprintf("id <= %d", c/4), true},
		{fmt.Sprintf("id >= %d", n-c/4), true},
		{fmt.Sprintf("id BETWEEN %d AND %d", c, c+rng.Intn(8)), true},
		{fmt.Sprintf("id = %d AND v > %d", c, rng.Intn(3*n)), true},
		{fmt.Sprintf("k = %d", rng.Intn(17)), true},
		{fmt.Sprintf("k < %d AND id > %d", rng.Intn(4), c), true},
		{"id = NULL", false},
		{fmt.Sprintf("v = %d", 3*c), false},
		{fmt.Sprintf("s = 's%d' AND v < %d", rng.Intn(5), rng.Intn(3*n)), false},
	}
	w := wheres[rng.Intn(len(wheres))]
	switch rng.Intn(4) {
	case 0:
		return "DELETE FROM t WHERE " + w.w, w.indexed
	case 1:
		return fmt.Sprintf("UPDATE t SET k = k + %d, s = 'u' WHERE %s", 1+rng.Intn(3), w.w), w.indexed
	default:
		return "UPDATE t SET v = v + 1 WHERE " + w.w, w.indexed
	}
}

// TestPlannedDMLMatchesSeqScan runs one seeded UPDATE/DELETE mix twice —
// targets planned through the indexes, and with indexes disabled so every
// statement walks the heap — and requires identical affected counts and
// identical final tables.
func TestPlannedDMLMatchesSeqScan(t *testing.T) {
	const n = 120
	for _, seedV := range mvccSeeds(t, 1, 2, 3) {
		t.Run(fmt.Sprintf("seed=%d", seedV), func(t *testing.T) {
			t.Logf("rng seed %d (set STAGEDB_SEED to override)", seedV)
			planned := NewDB(Config{})
			scanned := NewDB(Config{PlanOptions: plan.Options{DisableIndex: true}})
			ps, ss := dmlTable(t, planned, n), dmlTable(t, scanned, n)
			rng := rand.New(rand.NewSource(seedV))
			for i := 0; i < 300; i++ {
				q, indexed := randomDML(rng, n)
				if i%25 == 0 {
					q = fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 'i')", n+i, i%17, i)
				} else {
					if got := explainTarget(t, planned, q); strings.Contains(got, "IndexScan") != indexed {
						t.Fatalf("%q planned as %s", q, got)
					}
					if got := explainTarget(t, scanned, q); !strings.Contains(got, "SeqScan") {
						t.Fatalf("%q with DisableIndex planned as %s", q, got)
					}
				}
				a, b := mustExec(t, ps, q), mustExec(t, ss, q)
				if a.Affected != b.Affected {
					t.Fatalf("step %d %q: planned affected %d, seq scan affected %d", i, q, a.Affected, b.Affected)
				}
				if i%60 == 59 {
					for _, db := range []*DB{planned, scanned} {
						if _, err := db.Vacuum(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			pa, sa := tableRows(t, ps), tableRows(t, ss)
			if strings.Join(pa, "\n") != strings.Join(sa, "\n") {
				t.Fatalf("final tables differ:\nplanned %v\nseq scan %v", pa, sa)
			}
		})
	}
}

// TestUpdateKeyColumnTouchesEachRowOnce is the Halloween check: an UPDATE
// that moves every row further along the very index range it scans must
// still touch each row exactly once.
func TestUpdateKeyColumnTouchesEachRowOnce(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 200)
	q := "UPDATE t SET id = id + 1000 WHERE id >= 0"
	if got := explainTarget(t, db, q); !strings.Contains(got, "IndexScan t via pk_t") {
		t.Fatalf("key-range update should probe the primary key: %s", got)
	}
	if res := mustExec(t, s, q); res.Affected != 200 {
		t.Fatalf("affected %d rows, want 200", res.Affected)
	}
	res := mustExec(t, s, "SELECT id FROM t ORDER BY id")
	if len(res.Rows) != 200 {
		t.Fatalf("%d rows after update, want 200", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(1000+i) {
			t.Fatalf("row %d has id %d, want %d", i, r[0].Int(), 1000+i)
		}
	}
}

// TestIndexTargetConflictFirstCommitterWins checks first-committer-wins on
// the index path: a transaction whose snapshot predates a committed update
// of its target row must fail with ErrSerializationFailure, for both the
// primary and a secondary index.
func TestIndexTargetConflictFirstCommitterWins(t *testing.T) {
	for _, where := range []string{"id = 7", "k = 7"} {
		t.Run(where, func(t *testing.T) {
			db := NewDB(Config{})
			s1 := dmlTable(t, db, 20)
			q := "UPDATE t SET v = v + 1 WHERE " + where
			if got := explainTarget(t, db, q); !strings.Contains(got, "IndexScan") {
				t.Fatalf("%q should use an index: %s", q, got)
			}
			s2 := db.NewSession()
			mustExec(t, s2, "BEGIN")
			mustExec(t, s2, "SELECT id FROM t WHERE id = 0") // pin the snapshot
			mustExec(t, s1, q)                               // commits after s2's snapshot
			_, err := s2.Exec(q)
			if !errors.Is(err, mvcc.ErrSerializationFailure) {
				t.Fatalf("want ErrSerializationFailure, got %v", err)
			}
			if s2.InTxn() {
				t.Fatal("serialization loser should have been rolled back")
			}
			if res := mustExec(t, s2, q); res.Affected != 1 {
				t.Fatalf("retry affected %d rows", res.Affected)
			}
		})
	}
}

// TestIndexTargetSkipsReclaimedSlot plants an index entry whose heap slot
// was already reclaimed — the state an index probe meets when a version is
// reclaimed between its indexing and the fetch — and requires DML to skip
// it rather than fail.
func TestIndexTargetSkipsReclaimedSlot(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 10)
	tbl, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := db.IndexOf(tbl.IndexOn("id"))
	if err != nil {
		t.Fatal(err)
	}
	// A tombstoned slot still indexed under key 3.
	rec := mvcc.NewVersion(1, mustEncode(t, tbl.Schema.Columns, value.Row{value.NewInt(3), value.NewInt(0), value.NewInt(0), value.NewText("x")}))
	rid, err := h.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	bt.Insert(value.NewInt(3), rid)
	if res := mustExec(t, s, "UPDATE t SET v = 99 WHERE id = 3"); res.Affected != 1 {
		t.Fatalf("affected %d rows, want 1", res.Affected)
	}
	if res := mustExec(t, s, "DELETE FROM t WHERE id BETWEEN 2 AND 4"); res.Affected != 3 {
		t.Fatalf("affected %d rows, want 3", res.Affected)
	}
}

func mustEncode(t *testing.T, cols []catalog.Column, row value.Row) []byte {
	t.Helper()
	b, err := storage.EncodeRow(catalog.Schema{Columns: cols}, row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPruneOnWriteBoundsDeadVersions runs point updates with no snapshot
// open and no Vacuum: each writer reclaims the dead versions on the page it
// writes and places the successor there, so dead versions stay at most one
// per page and the heap does not grow.
func TestPruneOnWriteBoundsDeadVersions(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 300)
	tbl, _ := db.Catalog().Get("t")
	h, err := db.HeapOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	pages := h.Pages()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", rng.Intn(300)))
	}
	live, dead, err := db.TableVersions("t")
	if err != nil {
		t.Fatal(err)
	}
	if live != 300 || dead > int64(h.Pages()) {
		t.Fatalf("after 3000 point updates: live %d (want 300), dead %d (want <= %d pages)", live, dead, h.Pages())
	}
	if h.Pages() > pages+1 {
		t.Fatalf("heap grew from %d to %d pages under point updates", pages, h.Pages())
	}
	if st := db.MVCCStats(); st.PrunedOnWrite == 0 || st.VersionsPruned != 0 {
		t.Fatalf("pruned on write %d, by vacuum %d", st.PrunedOnWrite, st.VersionsPruned)
	}
	if _, err := db.Vacuum(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, dead, _ := db.TableVersions("t"); dead != 0 {
		t.Fatalf("%d dead versions after Vacuum", dead)
	}
}

// TestPruneOnWriteKeepsVersionsSnapshotsNeed has writers prune the page
// holding a version an open snapshot still reads: the version must survive
// until the snapshot ends, and go with the next write after that.
func TestPruneOnWriteKeepsVersionsSnapshotsNeed(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 20)
	reader := db.NewSession()
	mustExec(t, reader, "BEGIN")
	if res := mustExec(t, reader, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].Int() != 3 {
		t.Fatalf("baseline: %v", res.Rows)
	}
	mustExec(t, s, "UPDATE t SET v = 100 WHERE id = 1")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "UPDATE t SET v = v + 1 WHERE id = 2") // same page as id 1
	}
	for _, q := range []string{"SELECT v FROM t WHERE id = 1", "SELECT v FROM t WHERE v = 3"} {
		if res := mustExec(t, reader, q); len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
			t.Fatalf("%s: open snapshot lost its version to prune on write: %v", q, res.Rows)
		}
	}
	mustExec(t, reader, "COMMIT")
	pruned := db.MVCCStats().PrunedOnWrite
	mustExec(t, s, "UPDATE t SET v = v + 1 WHERE id = 2")
	if db.MVCCStats().PrunedOnWrite <= pruned {
		t.Fatal("the version the snapshot held should be pruned once it ended")
	}
}

// TestPruneOnWriteRolledBack has a writer prune reclaimable versions inside
// a transaction that then rolls back: no snapshot — one opened before the
// writer, or after the rollback — may see any difference, and Vacuum still
// leaves no dead version behind.
func TestPruneOnWriteRolledBack(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 150)
	for i := 0; i < 150; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", i))
	}
	reader := db.NewSession()
	mustExec(t, reader, "BEGIN")
	before := tableRows(t, reader)

	w := db.NewSession()
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE t SET v = -1 WHERE id < 150")
	if db.MVCCStats().PrunedOnWrite == 0 {
		t.Fatal("the writer should have pruned the committed dead versions")
	}
	mustExec(t, w, "ROLLBACK")

	if got := tableRows(t, reader); strings.Join(got, "\n") != strings.Join(before, "\n") {
		t.Fatalf("open snapshot changed across a rolled-back prune:\nbefore %v\nafter %v", before, got)
	}
	mustExec(t, reader, "COMMIT")
	if got := tableRows(t, s); strings.Join(got, "\n") != strings.Join(before, "\n") {
		t.Fatalf("rolled-back prune changed the table:\nbefore %v\nafter %v", before, got)
	}
	for i := 0; i < 150; i += 7 {
		if res := mustExec(t, s, fmt.Sprintf("SELECT v FROM t WHERE id = %d", i)); len(res.Rows) != 1 {
			t.Fatalf("index lookup of id %d returned %d rows", i, len(res.Rows))
		}
	}
	if _, err := db.Vacuum(context.Background()); err != nil {
		t.Fatal(err)
	}
	live, dead, err := db.TableVersions("t")
	if err != nil || live != 150 || dead != 0 {
		t.Fatalf("after Vacuum: live %d dead %d err %v, want 150/0", live, dead, err)
	}
}

// TestPruneOnWriteSurvivesCrash crashes a durable database twice over
// pages that writers pruned, compacted and refilled: once with the pruning
// committed (redo repeats it) and once mid-transaction (undo restores the
// pruned versions). The table must come back exactly, and Vacuum must
// leave no dead version.
func TestPruneOnWriteSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 400; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	// A hot row on a full page: every update prunes its last version,
	// compacts the page and reuses the freed slot.
	for i := 0; i < 200; i++ {
		mustExec(t, s, "UPDATE kv SET v = v + 1 WHERE id = 1")
	}
	want := func(s *Session) {
		t.Helper()
		res := mustExec(t, s, "SELECT id, v FROM kv ORDER BY id")
		if len(res.Rows) != 400 {
			t.Fatalf("%d rows, want 400", len(res.Rows))
		}
		for i, r := range res.Rows {
			v := int64(i)
			if i == 1 {
				v = 201
			}
			if r[0].Int() != int64(i) || r[1].Int() != v {
				t.Fatalf("row %d = %v, want (%d, %d)", i, r, i, v)
			}
		}
	}
	// Crash with the committed prunes only in the log.
	db2 := openDurable(t, dir)
	s2 := db2.NewSession()
	want(s2)
	// Crash again inside a transaction that pruned and refilled pages.
	mustExec(t, s2, "UPDATE kv SET v = v + 0 WHERE id = 1")
	mustExec(t, s2, "BEGIN")
	for i := 0; i < 20; i++ {
		mustExec(t, s2, "UPDATE kv SET v = v + 1000 WHERE id = 1")
	}
	mustExec(t, s2, "UPDATE kv SET v = v + 1000 WHERE id > 300")
	db3 := openDurable(t, dir)
	defer db3.Close()
	s3 := db3.NewSession()
	want(s3)
	if _, err := db3.Vacuum(context.Background()); err != nil {
		t.Fatal(err)
	}
	live, dead, err := db3.TableVersions("kv")
	if err != nil || live != 400 || dead != 0 {
		t.Fatalf("after recovery and Vacuum: live %d dead %d err %v, want 400/0", live, dead, err)
	}
}

// TestStatusTableBoundedWithoutVacuum runs 20k auto-commit statements with
// no Vacuum and no long-lived snapshot: the commit path's amortized pruning
// must keep the transaction-status table bounded.
func TestStatusTableBoundedWithoutVacuum(t *testing.T) {
	db := NewDB(Config{})
	s := dmlTable(t, db, 50)
	peak := 0
	for i := 0; i < 20000; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", i%50))
		if n := db.MVCCStats().StatusEntries; n > peak {
			peak = n
		}
	}
	if peak > 256 {
		t.Fatalf("status table peaked at %d entries over 20k statements", peak)
	}
}
