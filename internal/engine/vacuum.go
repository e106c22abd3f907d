package engine

// vacuum.go is the MVCC garbage collector. UPDATE and DELETE never remove
// heap records in place of the versions they replace — they stamp an xmax
// and (for UPDATE) insert a successor — so dead versions accumulate until
// they are reclaimed. A version is reclaimable once its deleter committed at
// or before the oldest active snapshot's begin timestamp: no present
// snapshot can see it, and every future snapshot begins later. Reclamation
// is one per-page routine (prunePage) run two ways: by writers, on the page
// of every version they supersede (prune on write, inside the writer's own
// transaction), and by Vacuum over every page in a system transaction. Both
// run under the table's exclusive lock with logged physical deletes and
// index entry removal, so crash recovery and the WAL invariants hold
// unchanged.

import (
	"context"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
	"stagedb/internal/vclock"
)

// mvccCounters renders mvcc.Stats for stage snapshots (the \stages view).
func mvccCounters(st mvcc.Stats) map[string]int64 {
	return map[string]int64{
		"begins":           st.Begins,
		"commits":          st.Commits,
		"aborts":           st.Aborts,
		"conflicts":        st.Conflicts,
		"versions_pruned":  st.VersionsPruned,
		"pruned_on_write":  st.PrunedOnWrite,
		"active_snapshots": int64(st.ActiveSnapshots),
		"status_entries":   int64(st.StatusEntries),
		"oldest_active_ts": int64(st.OldestActiveTS),
	}
}

// Vacuum reclaims dead versions across every table, then prunes the
// transaction-status table. It returns the number of versions removed.
// Vacuum takes each table's exclusive lock in turn (briefly blocking
// writers of that table, never readers) and honors ctx while waiting.
func (db *DB) Vacuum(ctx context.Context) (int64, error) {
	var total int64
	for _, name := range db.cat.List() {
		n, err := db.VacuumTable(ctx, name)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// VacuumTable reclaims dead versions of one table inside its own system
// transaction and returns the number of versions removed.
func (db *DB) VacuumTable(ctx context.Context, table string) (int64, error) {
	tbl, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	id := db.begin()
	n, err := db.vacuumTable(ctx, id, tbl)
	if err != nil {
		db.rollback(id)
		return 0, err
	}
	if err := db.commit(id); err != nil {
		return 0, err
	}
	db.mv.Pruned(n)
	db.mv.Prune()
	return n, nil
}

// TableVersions counts one table's physical heap records by version state:
// live records (xmax = 0, the latest state) and dead ones (superseded or
// deleted). Dead returning to zero after Vacuum with no snapshots open is
// the no-orphan-versions invariant the crash harness asserts.
func (db *DB) TableVersions(table string) (live, dead int64, err error) {
	tbl, err := db.cat.Get(table)
	if err != nil {
		return 0, 0, err
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return 0, 0, err
	}
	var scanErr error
	h.Scan(func(_ storage.RID, rec []byte) bool {
		_, xmax, verr := storage.VersionOf(rec)
		if verr != nil {
			scanErr = verr
			return false
		}
		if xmax == 0 {
			live++
		} else {
			dead++
		}
		return true
	})
	return live, dead, scanErr
}

func (db *DB) vacuumTable(ctx context.Context, id txn.ID, tbl *catalog.Table) (int64, error) {
	if err := db.tm.Locks.Lock(ctx, id, "table:"+tbl.Name, txn.Exclusive); err != nil {
		return 0, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	h, err := db.HeapOf(tbl)
	if err != nil {
		return 0, err
	}
	// The horizon is pinned by our own snapshot among others, so it cannot
	// advance past concurrent readers while we hold it.
	horizon := db.mv.OldestActiveTS()
	var n int64
	for _, pid := range h.PageIDs() {
		k, err := db.prunePage(id, tbl, h, pid, horizon)
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// prunePage reclaims the dead versions on heap page pid that no snapshot can
// see — those whose deleter committed at or before horizon — inside
// transaction id, and returns how many it removed. Each reclaim is a logged
// delete plus the removal of the version's index entries, so rollback and
// crash recovery treat it like any other write of id. It is the one
// per-version reclaim routine: VacuumTable runs it over every page, and
// writers run it on each page they supersede a version on (prune on write).
// The caller holds the table's exclusive lock.
func (db *DB) prunePage(id txn.ID, tbl *catalog.Table, h *storage.Heap, pid storage.PageID, horizon vclock.Time) (int64, error) {
	type victim struct {
		rid storage.RID
		rec []byte
	}
	var victims []victim
	var scanErr error
	if err := h.ScanPage(pid, func(rid storage.RID, rec []byte) bool {
		_, xmax, err := storage.VersionOf(rec)
		if err != nil {
			scanErr = err
			return false
		}
		if xmax == 0 {
			return true // live in the latest state
		}
		if ts, committed := db.mv.CommittedTS(xmax); !committed || ts > horizon {
			return true // deleter unresolved or visible to some snapshot
		}
		victims = append(victims, victim{rid: rid, rec: append([]byte(nil), rec...)})
		return true
	}); err != nil {
		return 0, err
	}
	if scanErr != nil || len(victims) == 0 {
		return 0, scanErr
	}
	trees, err := db.treesOf(tbl)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, v := range victims {
		v := v
		if err := h.DeleteLogged(v.rid, func(rid storage.RID) (uint64, error) {
			return db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecDelete, Table: tbl.Name,
				RID: rid, Before: v.rec})
		}); err != nil {
			return n, err
		}
		if len(trees) > 0 {
			row, err := decodeVersioned(tbl.Schema, v.rec)
			if err != nil {
				return n, err
			}
			for i, ixMeta := range tbl.Indexes {
				trees[i].Delete(row[ixMeta.ColIdx], v.rid)
			}
		}
		n++
	}
	return n, nil
}

// treesOf returns the B+trees of tbl's indexes, in tbl.Indexes order.
func (db *DB) treesOf(tbl *catalog.Table) ([]*storage.BTree, error) {
	trees := make([]*storage.BTree, len(tbl.Indexes))
	for i, ixMeta := range tbl.Indexes {
		bt, err := db.IndexOf(ixMeta)
		if err != nil {
			return nil, err
		}
		trees[i] = bt
	}
	return trees, nil
}
