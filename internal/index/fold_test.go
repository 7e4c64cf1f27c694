package index

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/lineage"
	"tendax/internal/search"
	"tendax/internal/util"
)

// keyAllocs reports the allocations of one typed key on a document of
// size chars: the commit of a one-key Apply plus the fold of the EvBatch
// it publishes. The commit is measured with the fold because only a
// commit publishes the fresh snapshot a fold would have to resolve the
// typed instances against, at the price of an index of the whole document.
func keyAllocs(t *testing.T, size int) float64 {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	eng, err := core.NewEngine(database, util.NewFakeClock(time.Unix(1_700_000_000, 0).UTC(), time.Second))
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.CreateDocument("alice", "chapter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", strings.Repeat("typed text ", size/11+1)[:size]); err != nil {
		t.Fatal(err)
	}
	// A bare service with no pump: the measured fold is the only one.
	s := &Service{
		eng:     eng,
		ix:      search.New(eng),
		g:       lineage.NewGraph(),
		cites:   make(map[util.ID]int),
		counted: make(map[util.ID]bool),
		dirty:   make(map[util.ID]bool),
		states:  make(map[util.ID]*docState),
	}
	st := &docState{d: d}
	s.states[d.ID()] = st
	var seq uint64
	return testing.AllocsPerRun(100, func() {
		res, _, err := d.ApplyAsync("alice", []core.EditOp{{Kind: core.EditInsert, Pos: 0, Text: "k"}})
		if err != nil {
			t.Fatal(err)
		}
		seq++
		s.fold(d.ID(), st, awareness.Event{Doc: d.ID(), Kind: awareness.EvBatch, Seq: seq,
			Batch: []awareness.BatchItem{{Kind: awareness.EvInsert, N: 1, IDs: res[0].IDs}}})
	})
}

// TestTypedKeyFoldIsOEdit pins the indexer's cost model: a typed key
// allocates about as much at 64 KiB as at 1 KiB, because typed instances
// carry no source and the fold never resolves them against a snapshot.
// The slack absorbs the commit's own jitter (about ten allocations); an
// ID index of a 64 KiB document costs some 250.
func TestTypedKeyFoldIsOEdit(t *testing.T) {
	small, big := keyAllocs(t, 1<<10), keyAllocs(t, 64<<10)
	t.Logf("allocs per typed key: %.0f at 1 KiB, %.0f at 64 KiB", small, big)
	if big > small+32 {
		t.Fatalf("allocs per typed key grew from %.0f at 1 KiB to %.0f at 64 KiB", small, big)
	}
}

// TestCloseReleasesWaitFolded: a waiter whose document can never catch
// up — its pump is made to look one event behind — returns once the
// service closes instead of waiting forever.
func TestCloseReleasesWaitFolded(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.CreateDocument("alice", "chapter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", "text"); err != nil {
		t.Fatal(err)
	}
	s, err := Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	s.waitFolded()
	s.mu.Lock()
	s.states[d.ID()].seq-- // the pump now owes an event no one will publish
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.waitFolded()
		close(done)
	}()
	// Give the waiter time to park; it must return in either order.
	time.Sleep(10 * time.Millisecond)
	s.Close()
	<-done
}
