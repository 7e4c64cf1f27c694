package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/server"
	"tendax/internal/util"
)

// keystroke: two typists on two v3 connections, with authentication on,
// send one-keystroke edit batches at keyRate each into one shared
// document; each connection holds a live replica of the other's edits.
// The second typist is denied reading a section of the document, so the
// server redacts every push to it. Open loop: keystroke i is due at
// start + i/keyRate whatever happened to keystroke i-1, and its latency
// counts from that due time, so a stall shows on the keys behind it.
const (
	keyRate     = 100  // keystrokes per second per typist
	keyOwnCap   = 4096 // live characters per typist; beyond it inserts turn into backspaces
	keySection  = 300  // runes of each of the seed's three sections
	keyCursorGo = 16   // cursor moves stay this far from the end
	keyMaxKeys  = 120 * keyRate
)

type keystroke struct {
	seed    int64
	doc     uint64
	typists [2]*typist
	seedIDs map[util.ID]bool // instances that existed before the deny rule
	seedLen int
	t0      time.Time
	cur     atomic.Pointer[phase]
}

type typist struct {
	name    string
	c       *client.Client
	d       *client.Doc
	rng     *rand.Rand
	v       *vocab
	pending string // text still to type

	own      []uint64 // live instances this typist inserted, newest last
	cursor   int
	moved    bool // the next insert goes at cursor, not after the last insert
	inserted atomic.Int64

	due  []atomic.Int64 // due time of edit k, ns since t0 (0 = not sent)
	sent int            // edits sent
	seen int            // the peer's edit events this replica applied
}

func newKeystroke(seed int64) *keystroke { return &keystroke{seed: seed} }

func (k *keystroke) auth() bool { return true }

func (k *keystroke) probe() probeSpec {
	return probeSpec{runes: 1, fill: 3 * keySection, backspace: true, secUser: "bob", secDoc: util.ID(k.doc),
		grid: k.t0, offset: time.Second / keyRate / 4}
}

func (k *keystroke) setup(st *stack) (*stack, error) {
	k.t0 = time.Now()
	rng := rand.New(rand.NewSource(k.seed))
	for i, name := range []string{"alice", "bob"} {
		pw := fmt.Sprintf("pw-%s-%d", name, k.seed)
		if err := st.sec.CreateUser(name, pw); err != nil {
			return st, err
		}
		c, err := client.Dial(st.addr, client.WithMaxVersion(protocol.VersionMax),
			client.WithUser(name), client.WithPassword(pw))
		if err != nil {
			return st, err
		}
		r := rand.New(rand.NewSource(k.seed*7919 + int64(i)))
		k.typists[i] = &typist{name: name, c: c, rng: r, v: newVocab(r, 2000),
			due: make([]atomic.Int64, keyMaxKeys)}
	}
	alice, bob := k.typists[0], k.typists[1]
	var err error
	if k.doc, err = alice.c.CreateDocument("shared"); err != nil {
		return st, err
	}
	// Both replicas subscribe before any text exists: a reader that opens
	// after a deny rule gets elided text while pushes carry masked runes
	// at unredacted positions (README.md, findings).
	for _, t := range k.typists {
		if t.d, err = t.c.Open(k.doc); err != nil {
			return st, err
		}
	}
	// Seed: public text, then «secret» (bob's denied section), then
	// public text again.
	v := newVocab(rng, 2000)
	text := v.text(keySection) + "«" + v.text(keySection) + "»" + v.text(keySection)
	res, err := alice.d.EditBatch([]protocol.EditOp{{Kind: protocol.EditInsert, Pos: 0, Text: text}})
	if err != nil {
		return st, err
	}
	ids := res[0].IDs
	k.seedIDs = make(map[util.ID]bool, len(ids))
	for _, id := range ids {
		k.seedIDs[util.ID(id)] = true
	}
	k.seedLen = len(ids)
	if err := waitFor(5*time.Second, func() bool { return bob.d.Text() == text }); err != nil {
		return st, fmt.Errorf("bob's replica never received the seed: %w", err)
	}
	start, end := util.ID(ids[keySection]), util.ID(ids[2*keySection+1])
	if _, err := st.sec.DenyRange("alice", util.ID(k.doc), security.UserPrefix+"bob", core.RRead, start, end); err != nil {
		return st, err
	}
	for i, t := range k.typists {
		t.cursor = t.rng.Intn(len(ids) - keyCursorGo)
		t.moved = true
		peer := k.typists[1-i]
		t.d.Watch(k.watcher(t, peer))
	}
	return st, nil
}

// watcher records, on t's replica, when each of peer's edits arrives.
// Edits of one typist are serialized, so the peer's k-th edit event is
// its k-th edit.
func (k *keystroke) watcher(t, peer *typist) func(protocol.Event) {
	return func(ev protocol.Event) {
		ph := k.cur.Load()
		if ph == nil {
			return
		}
		ph.events.Add(1)
		if ev.User != peer.name || (ev.Kind != "insert" && ev.Kind != "delete" && ev.Kind != "batch") {
			return
		}
		now := time.Since(k.t0)
		i := t.seen
		t.seen++
		if i < len(peer.due) {
			if due := peer.due[i].Load(); due != 0 {
				ph.add(&ph.visible, now-time.Duration(due))
			}
		}
		if t.name == "bob" && ev.Kind == "insert" {
			for _, r := range ev.Text {
				ph.pushed.Add(1)
				if r == server.MaskRune {
					ph.masked.Add(1)
				}
			}
		}
	}
}

func (k *keystroke) run(d time.Duration, ph *phase) error {
	k.cur.Store(ph)
	n := int(d.Seconds() * keyRate)
	for _, t := range k.typists {
		if t.sent+n > len(t.due) {
			return fmt.Errorf("keystroke runs at most %d keystrokes per typist", len(t.due))
		}
	}
	// Keystrokes are due on a schedule anchored at set-up, so the traced
	// run's probes can fall between them.
	start := nextSlot(k.t0, 0, time.Second/keyRate, time.Now().Add(time.Millisecond))
	var wg sync.WaitGroup
	for i, t := range k.typists {
		wg.Add(1)
		// The typists are offset by half an interval, as two people's
		// keystrokes would be.
		go func(i int, t *typist) {
			defer wg.Done()
			k.typeKeys(t, ph, start.Add(time.Duration(i)*time.Second/keyRate/2), n)
		}(i, t)
	}
	wg.Wait()
	return nil
}

// typeKeys sends n keystrokes on t's schedule. The mix is 85% inserts,
// 10% backspaces (of t's own newest character) and 5% cursor moves.
func (k *keystroke) typeKeys(t *typist, ph *phase, start time.Time, n int) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / keyRate)
		pace(due)
		sent := time.Now()
		ph.add(&ph.late, sent.Sub(due))
		ph.attempted.Add(1)

		r := t.rng.Intn(100)
		backspace := (r >= 85 && r < 95 && len(t.own) > 0) || (r < 85 && len(t.own) >= keyOwnCap)
		if r >= 95 {
			t.cursor = t.rng.Intn(max(1, t.d.Len()-keyCursorGo))
			t.moved = true
			if err := t.d.MoveCursor(t.cursor); err != nil {
				ph.fail()
			}
			continue
		}
		var op protocol.EditOp
		if backspace {
			op = protocol.EditOp{Kind: protocol.EditDelete, Chars: []uint64{t.own[len(t.own)-1]}}
		} else {
			if t.pending == "" {
				t.pending = t.v.text(256)
			}
			op = protocol.EditOp{Kind: protocol.EditInsert, Text: t.pending[:1]}
			if t.moved {
				op.Pos = t.cursor
			} else {
				op.Prev = true
			}
		}
		t.due[t.sent].Store(int64(due.Sub(k.t0)))
		t.sent++
		ph.batches.Add(1)
		res, err := t.d.EditBatch([]protocol.EditOp{op})
		acked := time.Now()
		if err != nil {
			ph.fail(&ph.ack, &ph.op)
			continue
		}
		ph.add(&ph.ack, acked.Sub(due))
		ph.add(&ph.op, acked.Sub(due))
		ph.add(&ph.rtt, acked.Sub(sent))
		ph.count(1, 1)
		if backspace {
			t.own = t.own[:len(t.own)-1]
			continue
		}
		t.pending = t.pending[1:]
		t.own = append(t.own, res[0].IDs[0])
		t.inserted.Add(1)
		t.moved = false
	}
}

func (k *keystroke) settle(st *stack) []string {
	d, err := st.cl.OpenDocument(util.ID(k.doc))
	if err != nil {
		return []string{err.Error()}
	}
	alice, bob := k.typists[0], k.typists[1]
	var wantAlice, wantBob string
	err = waitFor(10*time.Second, func() bool {
		snap := d.Snapshot()
		tree := snap.Tree()
		ids := tree.VisibleIDs()
		wantAlice = snap.Text()
		wantBob = maskedView(wantAlice, ids, st.sec.ReadableMask("bob", util.ID(k.doc), ids), k.seedIDs)
		return alice.d.Text() == wantAlice && bob.d.Text() == wantBob
	})
	if err == nil {
		return nil
	}
	return append(checkReplica("alice", alice.d.Text(), wantAlice),
		checkReplica("bob", bob.d.Text(), wantBob)...)
}

func (k *keystroke) closeClients() {
	for _, t := range k.typists {
		if t != nil {
			t.c.Close()
		}
	}
}

func (k *keystroke) chars() int64 {
	n := int64(k.seedLen)
	for _, t := range k.typists {
		if t != nil {
			n += t.inserted.Load()
		}
	}
	return n
}

func (k *keystroke) headline(r *report, ph *phase) {}

// pace sleeps until due, or returns at once when due has passed. A
// sleeping goroutine wakes late by the scheduler's and the kernel's
// wake-up latency; loadgen.late_ms reports by how much, and the
// latencies, timed from the due time, include it.
func pace(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("still unmet after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
