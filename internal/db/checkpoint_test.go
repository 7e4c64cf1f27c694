package db

import (
	"testing"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

// TestCheckpointCompactsLog: after a quiet fuzzy checkpoint the log holds
// only the begin/end pair, reopen redoes nothing, and all data is intact.
// Close takes the same checkpoint: it leaves no dirty page behind, and the
// next Open analyzes just that pair.
func TestCheckpointCompactsLog(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.CreateTable("t", docSchema())
	tx, _ := d.Begin()
	for i := int64(1); i <= 100; i++ {
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	sizeBefore := store.Len()
	if _, err := d.FuzzyCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if store.Len() >= sizeBefore {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", sizeBefore, store.Len())
	}

	d2, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Recovery.Redone != 0 {
		t.Fatalf("recovery redid %d records after checkpoint", d2.Recovery.Redone)
	}
	tbl2 := d2.Table("t")
	if tbl2.Count() != 100 {
		t.Fatalf("rows after checkpointed reopen = %d", tbl2.Count())
	}
	row, _, err := tbl2.GetByPK(nil, 42)
	if err != nil || row[1].(string) != "doc-42" {
		t.Fatalf("row 42 = %v, %v", row, err)
	}

	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if dirty := d2.Pool().DirtyPages(); len(dirty) != 0 {
		t.Fatalf("Close left %d dirty pages", len(dirty))
	}
	d3, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d3.Recovery.Analyzed != 2 || d3.Recovery.CheckpointLSN == 0 {
		t.Fatalf("reopen after Close analyzed %d records (checkpoint LSN %d), want the begin/end pair",
			d3.Recovery.Analyzed, d3.Recovery.CheckpointLSN)
	}
	if d3.Table("t").Count() != 100 {
		t.Fatalf("rows after Close and reopen = %d", d3.Table("t").Count())
	}
}

// TestEditsAfterCheckpointRecover: a crash after a checkpoint replays only
// the post-checkpoint tail, and page LSNs from before the checkpoint stay
// comparable (no stale-LSN skips).
func TestEditsAfterCheckpointRecover(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.CreateTable("t", docSchema())
	tx, _ := d.Begin()
	for i := int64(1); i <= 20; i++ {
		tbl.Insert(tx, sampleRow(i))
	}
	tx.Commit()
	if _, err := d.FuzzyCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint edits: update an old row and insert new ones.
	tx2, _ := d.Begin()
	row := sampleRow(5)
	row[1] = "updated-after-checkpoint"
	if err := tbl.UpdateByPK(tx2, 5, row); err != nil {
		t.Fatal(err)
	}
	for i := int64(21); i <= 30; i++ {
		tbl.Insert(tx2, sampleRow(i))
	}
	tx2.Commit()
	// Crash without flushing pages: recovery must replay the tail.
	d3, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl3 := d3.Table("t")
	if tbl3.Count() != 30 {
		t.Fatalf("rows after crash = %d, want 30", tbl3.Count())
	}
	got, _, err := tbl3.GetByPK(nil, 5)
	if err != nil || got[1].(string) != "updated-after-checkpoint" {
		t.Fatalf("post-checkpoint update lost: %v, %v", got, err)
	}
}

// TestRepeatedCheckpoints: checkpoint after every batch; the log stays
// bounded and the data complete.
func TestRepeatedCheckpoints(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.CreateTable("t", docSchema())
	maxLog := 0
	for batch := 0; batch < 10; batch++ {
		tx, _ := d.Begin()
		for i := int64(0); i < 20; i++ {
			if _, err := tbl.Insert(tx, sampleRow(int64(batch)*20+i+1)); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
		if _, err := d.FuzzyCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if store.Len() > maxLog {
			maxLog = store.Len()
		}
	}
	if maxLog > 4096 {
		t.Fatalf("log grew to %d bytes despite per-batch checkpoints", maxLog)
	}
	d2, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Table("t").Count() != 200 {
		t.Fatalf("rows = %d, want 200", d2.Table("t").Count())
	}
}
