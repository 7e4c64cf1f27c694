package storage

import (
	"bytes"
	"testing"

	"tendax/internal/util"
)

// TestUpdateGrowthTriggersCompaction repeatedly grows records in one page;
// without compaction the abandoned copies would exhaust it quickly.
func TestUpdateGrowthTriggersCompaction(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	var slots []int
	for i := 0; i < 8; i++ {
		s, err := sp.Insert(bytes.Repeat([]byte{byte(i)}, 200))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Grow every record by 40 bytes, four times: needs ~8*40*4 = 1280 fresh
	// bytes beyond the ~2.4K still free — only compaction makes it fit.
	size := 200
	for round := 0; round < 4; round++ {
		size += 40
		for i, s := range slots {
			rec := bytes.Repeat([]byte{byte(i)}, size)
			if err := sp.Update(s, rec); err != nil {
				t.Fatalf("round %d slot %d: %v", round, s, err)
			}
		}
	}
	for i, s := range slots {
		got, err := sp.Get(s)
		if err != nil || len(got) != size || got[0] != byte(i) {
			t.Fatalf("slot %d corrupted after compactions: %d bytes, %v", s, len(got), err)
		}
	}
}

// TestCompactionPreservesAllRecords randomizes inserts, deletes and grows,
// checking against a model after heavy fragmentation.
func TestCompactionPreservesAllRecords(t *testing.T) {
	rng := util.NewRand(31)
	pg := &Page{}
	sp := InitSlotted(pg)
	model := map[int][]byte{}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // insert
			rec := []byte(rng.Letters(20 + rng.Intn(100)))
			if s, err := sp.Insert(rec); err == nil {
				model[s] = rec
			}
		case 2: // delete
			for s := range model {
				if err := sp.Delete(s); err != nil {
					t.Fatal(err)
				}
				delete(model, s)
				break
			}
		case 3: // grow-update
			for s, old := range model {
				rec := append(append([]byte(nil), old...), []byte(rng.Letters(30))...)
				if err := sp.Update(s, rec); err == nil {
					model[s] = rec
				}
				break
			}
		}
	}
	for s, want := range model {
		got, err := sp.Get(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d diverged after fragmentation workload", s)
		}
	}
}

// TestUpdateRestoresOldRecordWhenStillFull verifies the ErrPageFull path:
// if even compaction cannot fit the new record, the old one must survive.
func TestUpdateRestoresOldRecordWhenStillFull(t *testing.T) {
	pg := &Page{}
	sp := InitSlotted(pg)
	s0, err := sp.Insert(bytes.Repeat([]byte{7}, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the rest of the page.
	for {
		if _, err := sp.Insert(bytes.Repeat([]byte{9}, 500)); err != nil {
			break
		}
	}
	// Now try to grow s0 far beyond any reclaimable space.
	err = sp.Update(s0, bytes.Repeat([]byte{8}, 3000))
	if err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	got, err := sp.Get(s0)
	if err != nil || len(got) != 100 || got[0] != 7 {
		t.Fatalf("old record lost after failed grow: %d bytes, %v", len(got), err)
	}
}

// TestUpdateFitsPredictsUpdate checks UpdateFits against Update itself on
// fragmented pages: every grow, shrink and oversize request must be
// predicted exactly, since write-ahead callers log on its say-so.
func TestUpdateFitsPredictsUpdate(t *testing.T) {
	rng := util.NewRand(5)
	for round := 0; round < 200; round++ {
		pg := &Page{}
		sp := InitSlotted(pg)
		var live []int
		for {
			s, err := sp.Insert(bytes.Repeat([]byte{1}, 50+rng.Intn(400)))
			if err != nil {
				break
			}
			live = append(live, s)
		}
		// Fragment: delete some records and grow others in place.
		for i := 0; i < len(live); i++ {
			if rng.Intn(3) == 0 {
				if err := sp.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				i--
			}
		}
		for i := 0; i < 8; i++ {
			slot := live[rng.Intn(len(live))]
			n := rng.Intn(PageSize)
			want := sp.UpdateFits(slot, n)
			twin := &Page{data: pg.data}
			err := Slotted(twin).Update(slot, bytes.Repeat([]byte{2}, n))
			if got := err == nil; got != want {
				t.Fatalf("round %d: UpdateFits(%d, %d) = %v, Update err = %v", round, slot, n, want, err)
			}
			if err == nil {
				pg.data = twin.data
			}
		}
	}
}
