package db

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// faultDisk wraps a DiskManager and fails writes once armed — the storage
// layer must surface the error instead of corrupting state.
type faultDisk struct {
	storage.DiskManager
	failWrites atomic.Bool
}

func (f *faultDisk) WritePage(id storage.PageID, buf []byte) error {
	if f.failWrites.Load() {
		return errors.New("injected write fault")
	}
	return f.DiskManager.WritePage(id, buf)
}

func TestWriteFaultSurfacesOnCheckpoint(t *testing.T) {
	fd := &faultDisk{DiskManager: storage.NewMemDisk()}
	d, err := OpenWith(fd, wal.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fd.failWrites.Store(true)
	if _, err := d.FuzzyCheckpoint(); err == nil {
		t.Fatal("checkpoint swallowed the injected write fault")
	}
	// Data remains intact: after clearing the fault, reads still work.
	fd.failWrites.Store(false)
	if _, _, err := tbl.GetByPK(nil, 1); err != nil {
		t.Fatal(err)
	}
}

// faultStore injects WAL append failures: commits must fail loudly.
type faultStore struct {
	wal.Store
	failAppend atomic.Bool
}

func (f *faultStore) Append(b []byte) error {
	if f.failAppend.Load() {
		return errors.New("injected log fault")
	}
	return f.Store.Append(b)
}

func TestLogFaultFailsCommit(t *testing.T) {
	fs := &faultStore{Store: wal.NewMemStore()}
	d, err := OpenWith(storage.NewMemDisk(), fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	fs.failAppend.Store(true)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded although the log could not be written")
	}
	fs.failAppend.Store(false)
}

// TestDeadlockVictimCanRetry induces a deadlock between two transactions;
// the victim aborts (releasing the survivor) and its retry succeeds.
func TestDeadlockVictimCanRetry(t *testing.T) {
	d, err := Open(Options{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TInt}})
	setup, _ := d.Begin()
	ridA, _ := tbl.Insert(setup, Row{int64(1), int64(0)})
	ridB, _ := tbl.Insert(setup, Row{int64(2), int64(0)})
	setup.Commit()

	t1, _ := d.Begin()
	t2, _ := d.Begin()
	if err := tbl.Update(t1, ridA, Row{int64(1), int64(10)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(t2, ridB, Row{int64(2), int64(20)}); err != nil {
		t.Fatal(err)
	}
	// t1 wants B (held by t2); t2 wants A (held by t1): one of them is the
	// deadlock victim. Both contenders run concurrently; the victim's
	// error arrives first (the survivor can only proceed after the victim
	// aborts and releases its locks).
	type outcome struct {
		tx  *txn.Txn
		err error
	}
	res := make(chan outcome, 2)
	go func() { res <- outcome{t1, tbl.Update(t1, ridB, Row{int64(2), int64(11)})} }()
	go func() { res <- outcome{t2, tbl.Update(t2, ridA, Row{int64(1), int64(21)})} }()

	first := <-res
	if !errors.Is(first.err, txn.ErrDeadlock) {
		t.Fatalf("first outcome should be the deadlock victim, got %v", first.err)
	}
	if err := first.tx.Abort(); err != nil {
		t.Fatal(err)
	}
	second := <-res
	if second.err != nil {
		t.Fatalf("survivor failed: %v", second.err)
	}
	if err := second.tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Retry of the aborted work succeeds.
	t3, _ := d.Begin()
	if err := tbl.Update(t3, ridA, Row{int64(1), int64(99)}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocatedRowKeepsIdentity fills a page, then grows one row until it
// must relocate to another page; PK and index lookups must follow.
func TestRelocatedRowKeepsIdentity(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{
		{Name: "id", Type: TInt},
		{Name: "tag", Type: TString},
		{Name: "body", Type: TBytes},
	}, "tag")

	// Fill one page with victims.
	tx, _ := d.Begin()
	body := make([]byte, 300)
	for i := int64(1); i <= 12; i++ {
		if _, err := tbl.Insert(tx, Row{i, fmt.Sprintf("tag%d", i), body}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	// Grow row 1 beyond what its page can ever hold.
	tx2, _ := d.Begin()
	huge := make([]byte, 1800)
	if err := tbl.UpdateByPK(tx2, 1, Row{int64(1), "tag1", huge}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	row, _, err := tbl.GetByPK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(row[2].([]byte)) != 1800 {
		t.Fatal("grown row truncated")
	}
	rids, err := tbl.LookupEq("tag", "tag1")
	if err != nil || len(rids) != 1 {
		t.Fatalf("index lost relocated row: %v, %v", rids, err)
	}
	got, err := tbl.Get(nil, rids[0])
	if err != nil || got[0].(int64) != 1 {
		t.Fatalf("index points at wrong row: %v, %v", got, err)
	}
	if tbl.Count() != 12 {
		t.Fatalf("Count = %d after relocation", tbl.Count())
	}
}

// TestIndexMatchesScanProperty: after a random workload, every row found by
// a full scan is found via the secondary index and vice versa.
func TestIndexMatchesScanProperty(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{
		{Name: "id", Type: TInt},
		{Name: "bucket", Type: TString},
	}, "bucket")
	rng := util.NewRand(99)
	live := map[int64]string{}
	nextID := int64(0)
	for step := 0; step < 600; step++ {
		tx, _ := d.Begin()
		switch rng.Intn(3) {
		case 0, 1:
			nextID++
			bucket := fmt.Sprintf("b%d", rng.Intn(10))
			if _, err := tbl.Insert(tx, Row{nextID, bucket}); err != nil {
				t.Fatal(err)
			}
			live[nextID] = bucket
		case 2:
			if len(live) > 0 {
				var victim int64
				for id := range live {
					victim = id
					break
				}
				if err := tbl.DeleteByPK(tx, victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Scan-side view.
	scanBuckets := map[string]int{}
	err = tbl.Scan(nil, func(_ RID, row Row) (bool, error) {
		scanBuckets[row[1].(string)]++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Index-side view.
	for b := 0; b < 10; b++ {
		bucket := fmt.Sprintf("b%d", b)
		rids, err := tbl.LookupEq("bucket", bucket)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != scanBuckets[bucket] {
			t.Fatalf("bucket %s: index %d vs scan %d", bucket, len(rids), scanBuckets[bucket])
		}
	}
	if tbl.Count() != len(live) {
		t.Fatalf("Count = %d, model = %d", tbl.Count(), len(live))
	}
}
