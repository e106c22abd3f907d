package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fillPage inserts fixed-size records until the page is full and returns
// their slots.
func fillPage(t *testing.T, p *Page, size int) []uint16 {
	t.Helper()
	var slots []uint16
	for i := 0; ; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		s, err := p.Insert(rec)
		if err != nil {
			return slots
		}
		slots = append(slots, s)
	}
}

func TestPageCompactKeepsLiveRecordsAndSlots(t *testing.T) {
	var p Page
	p.InitPage(1)
	slots := fillPage(t, &p, 100)
	want := map[uint16][]byte{}
	for i, s := range slots {
		if i%3 == 0 {
			if err := p.Delete(s); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rec, _ := p.Get(s)
		want[s] = append([]byte(nil), rec...)
	}
	before := p.FreeSpace()
	p.compact()
	if p.FreeSpace() <= before {
		t.Fatalf("compaction freed nothing: %d -> %d", before, p.FreeSpace())
	}
	for s, rec := range want {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("slot %d after compaction: %q, %v", s, got, err)
		}
	}
	if p.LiveSlots() != len(want) {
		t.Fatalf("live slots %d, want %d", p.LiveSlots(), len(want))
	}
}

func TestPagePlaceReusesReclaimedSpace(t *testing.T) {
	var p Page
	p.InitPage(1)
	slots := fillPage(t, &p, 100)
	rec := bytes.Repeat([]byte{'z'}, 100)
	if _, ok := p.place(rec); ok {
		t.Fatal("a full page with nothing to reclaim must refuse the record")
	}
	if err := p.Delete(slots[5]); err != nil {
		t.Fatal(err)
	}
	count := p.SlotCount()
	s, ok := p.place(rec)
	if !ok || s != slots[5] {
		t.Fatalf("place = (%d, %v), want the reclaimed slot %d", s, ok, slots[5])
	}
	if p.SlotCount() != count {
		t.Fatalf("slot array grew from %d to %d", count, p.SlotCount())
	}
	if got, _ := p.Get(s); !bytes.Equal(got, rec) {
		t.Fatalf("placed record reads back %q", got)
	}
	// Reverting the placement restores the page's logical contents.
	p.revertPlace(s)
	if p.Live(s) {
		t.Fatal("reverted slot still live")
	}
	if s2, ok := p.place(rec); !ok || s2 != s {
		t.Fatalf("re-place after revert = (%d, %v)", s2, ok)
	}
}

// TestPagePutAtAfterCompaction replays a placement onto a page image that
// never saw the (unlogged) compaction: redo must compact on demand.
func TestPagePutAtAfterCompaction(t *testing.T) {
	var live, replay Page
	live.InitPage(1)
	slots := fillPage(t, &live, 100)
	replay = live
	rec := bytes.Repeat([]byte{'z'}, 120) // larger than the slot it reuses
	for _, s := range slots[:3] {
		if err := live.Delete(s); err != nil {
			t.Fatal(err)
		}
		if err := replay.ClearAt(s); err != nil {
			t.Fatal(err)
		}
	}
	s, ok := live.place(rec)
	if !ok {
		t.Fatal("place after reclaiming three records failed")
	}
	if err := replay.PutAt(s, rec); err != nil {
		t.Fatalf("redo of the placement: %v", err)
	}
	for _, sl := range append([]uint16{s}, slots[3:]...) {
		a, errA := live.Get(sl)
		b, errB := replay.Get(sl)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("slot %d differs after redo: %q/%v vs %q/%v", sl, a, errA, b, errB)
		}
	}
}

func TestHeapInsertLoggedNear(t *testing.T) {
	h := NewHeap(NewPool(NewStore(), 8))
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	first := rids[0].Page
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'n'}, 100)
	rid, err := h.InsertLoggedNear(first, rec, nil)
	if err != nil || rid.Page != first {
		t.Fatalf("near insert went to %v (%v), want page %d", rid, err, first)
	}
	// No room left on the first page: the last-page policy takes over.
	rid, err = h.InsertLoggedNear(first, rec, nil)
	if err != nil || rid.Page == first {
		t.Fatalf("overflow insert went to %v (%v)", rid, err)
	}
	// A failed log append reverts the placement.
	if err := h.Delete(rids[2]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("log full")
	if _, err := h.InsertLoggedNear(first, rec, func(RID) (uint64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("want log error, got %v", err)
	}
	n, err := h.Count()
	if err != nil || n != 200 {
		t.Fatalf("count %d (%v), want 200", n, err)
	}
}

// TestHeapScanVisitsPrivateCopy checks that a scan callback no longer holds
// the heap latch: a writer may mutate the page being visited, and the
// visit still sees the page as it was copied.
func TestHeapScanVisitsPrivateCopy(t *testing.T) {
	h := NewHeap(NewPool(NewStore(), 8))
	for i := 0; i < 10; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := h.Scan(func(rid RID, rec []byte) bool {
		if seen == 0 {
			// Would deadlock if the visit held the latch.
			if err := h.Delete(RID{Page: rid.Page, Slot: 9}); err != nil {
				t.Fatal(err)
			}
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("scan saw %d records, want the 10 present when the page was copied", seen)
	}
}
