// Package mvcc implements multi-version concurrency control with snapshot
// isolation for the staged engine.
//
// Every heap record carries a 16-byte version header (storage.VerHdrLen):
// xmin, the transaction that created the version, and xmax, the transaction
// that deleted or superseded it (0 while live). The Manager maps transaction
// ids to their outcome — active, committed at a logical timestamp, or
// aborted — and decides visibility: a snapshot taken at BEGIN sees exactly
// the versions committed at or before its begin timestamp, plus its own
// uncommitted writes. Readers take no locks; writers serialize per table
// through the lock manager and detect write-write conflicts
// first-committer-wins (ErrSerializationFailure, retryable).
//
// Timestamps are logical ticks from a vclock.Oracle and are NOT persisted:
// after a crash, recovery undoes every loser transaction before the first
// snapshot exists, so all transaction ids surviving in the heap belong to
// committed transactions and the unknown-id rule below gives them the right
// visibility.
//
// Unknown-id rule: a transaction id with no status entry is treated as
// committed at timestamp 0 — visible to every snapshot as a creator (xmin),
// dead to every snapshot as a deleter (xmax). This is sound because entries
// are only pruned when no active snapshot could distinguish them from
// "committed forever ago" (see Prune), and after recovery only committed
// ids survive in the heap.
package mvcc

import (
	"errors"
	"sync"
	"sync/atomic"

	"stagedb/internal/vclock"
)

// ErrSerializationFailure reports a first-committer-wins write-write
// conflict: another transaction modified a row this transaction intended to
// write and committed after this transaction's snapshot began. The
// transaction was rolled back; retrying it against a fresh snapshot is safe
// and expected to succeed.
var ErrSerializationFailure = errors.New("mvcc: serialization failure (concurrent write committed first, retry transaction)")

type txnState uint8

const (
	stateActive txnState = iota
	stateCommitted
	stateAborted
)

// txnStatus is one transaction's outcome. Entries stay until Prune decides
// no active snapshot can distinguish them from the unknown-id default.
type txnStatus struct {
	state      txnState
	commitTS   vclock.Time // valid when committed
	abortEpoch vclock.Time // set by AbortDone once undo completed; 0 = undo in flight
}

// Snapshot is a transaction's consistent view: it sees versions committed at
// or before TS, plus writes stamped with its own id.
type Snapshot struct {
	// TS is the begin timestamp: the newest commit timestamp issued before
	// this snapshot was taken.
	TS vclock.Time
	// ID is the owning transaction's id; versions stamped with it are the
	// transaction's own uncommitted writes.
	ID uint64
}

// Stats is a point-in-time summary of MVCC activity, surfaced on the engine
// stats API next to the stage counters.
type Stats struct {
	Begins          int64 // snapshots taken
	Commits         int64 // transactions stamped committed
	Aborts          int64 // transactions stamped aborted
	Conflicts       int64 // serialization failures raised
	VersionsPruned  int64 // dead versions physically reclaimed by vacuum
	PrunedOnWrite   int64 // dead versions writers reclaimed from the pages they wrote
	ActiveSnapshots int   // snapshots currently open
	StatusEntries   int   // transaction-status entries retained
	OldestActiveTS  vclock.Time
}

// Manager is the transaction-status table plus the set of open snapshots.
// All methods are safe for concurrent use.
type Manager struct {
	oracle *vclock.Oracle

	mu   sync.RWMutex
	txns map[uint64]*txnStatus
	// pruneAt is the status-table size at which the next commit prunes:
	// twice the size the last prune left (see Commit).
	pruneAt int
	active  map[uint64]*Snapshot   // open snapshot per transaction id
	snaps   map[*Snapshot]struct{} // all open snapshots (GC horizon)

	begins, commits, aborts, conflicts, pruned, prunedOnWrite atomic.Int64
}

// NewManager returns a Manager drawing timestamps from oracle.
func NewManager(oracle *vclock.Oracle) *Manager {
	return &Manager{
		oracle: oracle,
		txns:   make(map[uint64]*txnStatus),
		active: make(map[uint64]*Snapshot),
		snaps:  make(map[*Snapshot]struct{}),
	}
}

// Oracle returns the timestamp oracle the manager draws from.
func (m *Manager) Oracle() *vclock.Oracle { return m.oracle }

// Begin registers transaction id as active and opens its snapshot at the
// current timestamp high-water mark.
func (m *Manager) Begin(id uint64) *Snapshot {
	snap := &Snapshot{TS: m.oracle.Now(), ID: id}
	m.mu.Lock()
	m.txns[id] = &txnStatus{state: stateActive}
	m.active[id] = snap
	m.snaps[snap] = struct{}{}
	m.mu.Unlock()
	m.begins.Add(1)
	return snap
}

// SnapshotOf returns transaction id's open snapshot, or nil.
func (m *Manager) SnapshotOf(id uint64) *Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.active[id]
}

// End closes a snapshot, releasing its pin on the GC horizon. The owning
// transaction's status entry is unaffected.
func (m *Manager) End(snap *Snapshot) {
	if snap == nil {
		return
	}
	m.mu.Lock()
	delete(m.snaps, snap)
	if m.active[snap.ID] == snap {
		delete(m.active, snap.ID)
	}
	m.mu.Unlock()
}

// Commit stamps transaction id committed at a fresh timestamp. Must be
// called after the commit record is durable and before the transaction's
// write locks are released, so that any later snapshot either sees all of
// the transaction's versions or none.
//
// Commit also keeps the status table bounded without a vacuum: once the
// table has doubled since the last prune it prunes inline, so the prune
// cost is amortized O(1) per commit and the table tracks what open
// snapshots can still distinguish rather than every transaction ever run.
func (m *Manager) Commit(id uint64) {
	ts := m.oracle.Next()
	m.mu.Lock()
	m.txns[id] = &txnStatus{state: stateCommitted, commitTS: ts}
	if len(m.txns) >= m.pruneAt {
		m.pruneLocked()
	}
	m.mu.Unlock()
	m.commits.Add(1)
}

// Abort stamps transaction id aborted. Must be called before undo starts:
// from that point its versions are invisible to every snapshot, so readers
// never observe a half-undone transaction. Aborting an already-committed id
// is a no-op (commit wins — its versions are already visible).
func (m *Manager) Abort(id uint64) {
	m.mu.Lock()
	if st, ok := m.txns[id]; ok && st.state == stateCommitted {
		m.mu.Unlock()
		return
	}
	m.txns[id] = &txnStatus{state: stateAborted}
	m.mu.Unlock()
	m.aborts.Add(1)
}

// AbortDone records that transaction id's undo completed: no heap record
// references the id any more, so once every snapshot opened before this
// point has ended the status entry can be pruned.
func (m *Manager) AbortDone(id uint64) {
	ts := m.oracle.Next()
	m.mu.Lock()
	if st, ok := m.txns[id]; ok && st.state == stateAborted {
		st.abortEpoch = ts
	}
	m.mu.Unlock()
}

// CommittedTS resolves id under the unknown-id rule: unknown ids are
// committed at timestamp 0; active and aborted ids are not committed.
// Writers use it for latest-state decisions (primary-key checks, vacuum
// horizons) that the snapshot-relative Visible cannot answer.
func (m *Manager) CommittedTS(id uint64) (vclock.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.commitTSLocked(id)
}

// Conflict counts one serialization failure.
func (m *Manager) Conflict() { m.conflicts.Add(1) }

// Pruned counts n dead versions physically reclaimed by vacuum.
func (m *Manager) Pruned(n int64) { m.pruned.Add(n) }

// PrunedOnWrite counts n dead versions a writer reclaimed from a page it
// superseded a version on.
func (m *Manager) PrunedOnWrite(n int64) { m.prunedOnWrite.Add(n) }

// Visible reports whether a version stamped (xmin, xmax) is visible to snap:
// the creator must be the snapshot's own transaction or committed at or
// before the snapshot's begin timestamp, and the deleter (if any) must not
// be — a deletion by self, or committed at or before the begin timestamp,
// hides the version; an active, aborted, or later-committed deleter does
// not. Scans decide a whole page at once through VisibleAll; Visible serves
// single-version checks.
//
//stagedb:hot
func (m *Manager) Visible(snap *Snapshot, xmin, xmax uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.visibleLocked(snap, xmin, xmax)
}

// Stamp is one version's header stamps: its creator and its deleter (0
// while live).
type Stamp struct {
	Xmin, Xmax uint64
}

// VisibleAll sets keep[i] to Visible(snap, vers[i]) for every stamp, under a
// single acquisition of the status-table lock. Scans call it once per heap
// page, so a scan takes the lock that every Begin and Commit needs
// exclusively once per page rather than once per row.
//
//stagedb:hot
func (m *Manager) VisibleAll(snap *Snapshot, vers []Stamp, keep []bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, v := range vers {
		keep[i] = m.visibleLocked(snap, v.Xmin, v.Xmax)
	}
}

//stagedb:hot
func (m *Manager) visibleLocked(snap *Snapshot, xmin, xmax uint64) bool {
	if xmin != snap.ID {
		ts, committed := m.commitTSLocked(xmin)
		if !committed || ts > snap.TS {
			return false
		}
	}
	if xmax == 0 {
		return true
	}
	if xmax == snap.ID {
		return false
	}
	ts, committed := m.commitTSLocked(xmax)
	return !committed || ts > snap.TS
}

// commitTSLocked resolves id to its commit timestamp. Unknown ids are
// committed at timestamp 0 (see the package comment); active and aborted
// ids are not committed.
//
//stagedb:hot
func (m *Manager) commitTSLocked(id uint64) (vclock.Time, bool) {
	st, ok := m.txns[id]
	if !ok {
		return 0, true
	}
	if st.state == stateCommitted {
		return st.commitTS, true
	}
	return 0, false
}

// OldestActiveTS returns the GC horizon: the begin timestamp of the oldest
// open snapshot, or the current timestamp high-water mark when none is
// open. A version whose deleter committed at or before the horizon is
// invisible to every present and future snapshot and may be physically
// reclaimed.
func (m *Manager) OldestActiveTS() vclock.Time {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.oldestActiveLocked()
}

func (m *Manager) oldestActiveLocked() vclock.Time {
	oldest := m.oracle.Now()
	for snap := range m.snaps {
		if snap.TS < oldest {
			oldest = snap.TS
		}
	}
	return oldest
}

// Prune drops transaction-status entries that no present or future snapshot
// can distinguish from the unknown-id default: committed entries whose
// commit timestamp is below every open snapshot's begin timestamp (the
// default — committed at 0 — gives the same verdict), and aborted entries
// whose undo finished before every open snapshot began (no record carries
// the id, so nothing consults it). Active entries are never pruned. Returns
// the number of entries dropped.
func (m *Manager) Prune() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pruneLocked()
}

// minPruneAt keeps a near-empty status table from pruning on every commit.
const minPruneAt = 64

func (m *Manager) pruneLocked() int {
	horizon := m.oldestActiveLocked()
	dropped := 0
	for id, st := range m.txns {
		switch st.state {
		case stateCommitted:
			if st.commitTS < horizon {
				delete(m.txns, id)
				dropped++
			}
		case stateAborted:
			if st.abortEpoch != 0 && st.abortEpoch < horizon {
				delete(m.txns, id)
				dropped++
			}
		}
	}
	m.pruneAt = max(2*len(m.txns), minPruneAt)
	return dropped
}

// Stats returns a point-in-time summary.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	s := Stats{
		ActiveSnapshots: len(m.snaps),
		StatusEntries:   len(m.txns),
		OldestActiveTS:  m.oldestActiveLocked(),
	}
	m.mu.RUnlock()
	s.Begins = m.begins.Load()
	s.Commits = m.commits.Load()
	s.Aborts = m.aborts.Load()
	s.Conflicts = m.conflicts.Load()
	s.VersionsPruned = m.pruned.Load()
	s.PrunedOnWrite = m.prunedOnWrite.Load()
	return s
}
