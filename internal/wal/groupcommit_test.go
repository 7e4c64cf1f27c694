package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tendax/internal/storage"
)

// TestGroupCommitDurability drives many concurrent committers through the
// background flusher and verifies every record they waited on is readable
// back from the store in LSN order.
func TestGroupCommitDurability(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	log.StartGroupCommit(time.Millisecond)

	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txnID := uint64(w*per + i + 1)
				if _, err := log.Append(&Record{Type: RecBegin, TxnID: txnID}); err != nil {
					errs <- err
					return
				}
				lsn, err := log.Append(&Record{Type: RecCommit, TxnID: txnID})
				if err != nil {
					errs <- err
					return
				}
				if err := log.WaitFlushed(lsn); err != nil {
					errs <- err
					return
				}
				if flushed := log.FlushedLSN(); flushed < lsn {
					errs <- fmt.Errorf("WaitFlushed(%d) returned with FlushedLSN=%d", lsn, flushed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := LSN(0)
	count := 0
	if err := log.Iterate(func(r *Record) error {
		if r.LSN != want+1 {
			return fmt.Errorf("LSN gap: %d after %d", r.LSN, want)
		}
		want = r.LSN
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != writers*per*2 {
		t.Fatalf("store holds %d records, want %d", count, writers*per*2)
	}
	if log.SyncCount() == 0 {
		t.Fatal("flusher never synced")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCloseFlushesPending verifies that records appended but not
// yet awaited still reach the store on Close.
func TestGroupCommitCloseFlushesPending(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	log.StartGroupCommit(0)
	if _, err := log.Append(&Record{Type: RecBegin, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	lsn, err := log.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if log2.FlushedLSN() != lsn {
		t.Fatalf("reopened FlushedLSN=%d, want %d", log2.FlushedLSN(), lsn)
	}
}

// TestGroupCommitCompact verifies that a checkpoint taken while the
// group-commit flusher runs leaves a consistent log — only the begin/end
// pair survives truncation — and that LSNs stay monotonic across it and
// across a reopen.
func TestGroupCommitCompact(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	log.StartGroupCommit(time.Millisecond)
	var last LSN
	for i := uint64(1); i <= 10; i++ {
		if _, err := log.Append(&Record{Type: RecBegin, TxnID: i}); err != nil {
			t.Fatal(err)
		}
		if last, err = log.Append(&Record{Type: RecCommit, TxnID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.WaitFlushed(last); err != nil {
		t.Fatal(err)
	}
	res, err := log.FuzzyCheckpoint(
		func() ([]storage.DirtyPage, error) { return nil, nil },
		func() []ActiveTxn { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.BeginLSN <= last {
		t.Fatalf("checkpoint begin LSN %d not above pre-checkpoint %d", res.BeginLSN, last)
	}
	var types []RecordType
	if err := log.Iterate(func(r *Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != RecCkptBegin || types[1] != RecCkptEnd {
		t.Fatalf("after checkpoint: %v, want exactly the begin/end pair", types)
	}
	// LSNs continue monotonically past the checkpoint, and after reopen.
	lsn, err := log.Append(&Record{Type: RecBegin, TxnID: 11})
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= res.EndLSN {
		t.Fatalf("post-checkpoint LSN %d not above end record %d", lsn, res.EndLSN)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if next := log2.NextLSN(); next != lsn+1 {
		t.Fatalf("reopened NextLSN=%d, want %d", next, lsn+1)
	}
}

// TestGroupCommitFlushSemantics: Flush in group-commit mode must be a full
// durability barrier for everything appended so far.
func TestGroupCommitFlushSemantics(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	log.StartGroupCommit(time.Millisecond)
	var last LSN
	for i := uint64(1); i <= 5; i++ {
		if last, err = log.Append(&Record{Type: RecUpdate, TxnID: i, Op: OpInsert, Page: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if log.FlushedLSN() < last {
		t.Fatalf("Flush returned with FlushedLSN=%d, want >=%d", log.FlushedLSN(), last)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}
