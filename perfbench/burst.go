package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/client"
	"tendax/internal/protocol"
	"tendax/internal/util"
)

// burst: two typists on client.Session with its default coalescing and
// no access control, so every push takes the all-visible encode-once
// path. Each typist starts a paragraph of paraRunes keys paraRate times a
// second, types it as fast as Type accepts the keys and calls Wait: open
// loop between paragraphs, closed within one. A paragraph's latency
// counts from its due time, so one that starts late because the last
// ran long carries the delay.
//
// The rate keeps the two cores about 60% busy. In a closed loop both
// cores saturate, and the throughput then follows the speed of the
// shared host, which drifted by up to a third between runs a minute
// apart; at a fixed rate the processor time per paragraph repeats to
// within a few percent. keys_per_s stays at the offered rate while the
// program keeps up, and falls below it when it does not.
//
// Wait after every paragraph is what bounds the work in flight:
// client.Session has no backpressure of its own, and typing without
// Wait queues batches without limit (README.md, findings).
//
// Paragraphs go into chapters of at most chapterParas paragraphs; a full
// chapter is left for a new one, so no document grows without bound
// (throughput falls as one document grows). Each typist's connection
// holds a replica of the other's current chapter.
const (
	paraRunes    = 1024
	chapterParas = 64
	burstSample  = 16 // every burstSample-th key of a chapter is timed
	paraRate     = 16 // paragraphs each typist starts per second
)

type burst struct {
	seed    int64
	typists [2]*btypist
	t0      time.Time
	cur     atomic.Pointer[phase]
	typed   atomic.Int64 // durably acknowledged keys
}

type btypist struct {
	name     string
	c        *client.Client
	v        *vocab
	peer     *btypist
	chapters []*chapter
	sess     *client.Session
}

type chapter struct {
	id      uint64
	own     *client.Doc // the author's replica, under its session
	peer    *client.Doc // the other typist's replica
	want    strings.Builder
	runes   int
	paras   int
	typedAt []atomic.Int64 // sampled key -> ns since t0 when typed (0 = not yet)
}

func newBurst(seed int64) *burst { return &burst{seed: seed} }

func (b *burst) auth() bool { return false }

func (b *burst) probe() probeSpec {
	return probeSpec{runes: 128, fill: chapterParas * paraRunes / 2, atEnd: true}
}

func (b *burst) setup(st *stack) (*stack, error) {
	b.t0 = time.Now()
	for i, name := range []string{"ann", "ben"} {
		c, err := client.Dial(st.addr, client.WithMaxVersion(protocol.VersionMax), client.WithUser(name))
		if err != nil {
			return st, err
		}
		b.typists[i] = &btypist{name: name, c: c,
			v: newVocab(rand.New(rand.NewSource(b.seed*7919+int64(i))), 2000)}
	}
	b.typists[0].peer, b.typists[1].peer = b.typists[1], b.typists[0]
	for _, t := range b.typists {
		if err := b.newChapter(t); err != nil {
			return st, err
		}
	}
	return st, nil
}

// newChapter starts t's next chapter: a new document, the author's
// replica and session on it, and the peer's replica.
func (b *burst) newChapter(t *btypist) error {
	if t.sess != nil {
		if err := t.sess.Close(); err != nil {
			return err
		}
	}
	id, err := t.c.CreateDocument(fmt.Sprintf("%s-chapter-%d", t.name, len(t.chapters)))
	if err != nil {
		return err
	}
	ch := &chapter{id: id, typedAt: make([]atomic.Int64, chapterParas*paraRunes/burstSample)}
	if ch.own, err = t.c.Open(id); err != nil {
		return err
	}
	if ch.peer, err = t.peer.c.Open(id); err != nil {
		return err
	}
	ch.peer.Watch(b.watcher(ch))
	if t.sess, err = ch.own.Session(); err != nil {
		return err
	}
	t.chapters = append(t.chapters, ch)
	return nil
}

// watcher times, on the peer's replica, when each sampled key arrives.
// Only the author writes a chapter, so its length says which keys have.
func (b *burst) watcher(ch *chapter) func(protocol.Event) {
	seen := 0
	return func(ev protocol.Event) {
		ph := b.cur.Load()
		if ph == nil {
			return
		}
		ph.events.Add(1)
		n := ch.peer.Len()
		now := time.Since(b.t0)
		for off := roundUp(seen, burstSample); off < n && off/burstSample < len(ch.typedAt); off += burstSample {
			if at := ch.typedAt[off/burstSample].Load(); at != 0 {
				ph.add(&ph.visible, now-time.Duration(at))
			}
		}
		if n > seen {
			seen = n
		}
	}
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

func (b *burst) run(d time.Duration, ph *phase) error {
	b.cur.Store(ph)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, t := range b.typists {
		wg.Add(1)
		// The typists are offset by half an interval.
		first := start.Add(time.Duration(i) * time.Second / paraRate / 2)
		go func(i int, t *btypist) {
			defer wg.Done()
			for k := 0; ; k++ {
				due := first.Add(time.Duration(k) * time.Second / paraRate)
				if !due.Before(deadline) || !time.Now().Before(deadline) {
					return
				}
				pace(due)
				ph.add(&ph.late, time.Since(due))
				if err := b.paragraph(t, ph, due); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// paragraph types one paragraph, due at due, into t's current chapter
// and waits for its durable acknowledgement.
func (b *burst) paragraph(t *btypist, ph *phase, due time.Time) error {
	ch := t.chapters[len(t.chapters)-1]
	if ch.paras == chapterParas {
		if err := b.newChapter(t); err != nil {
			return err
		}
		ch = t.chapters[len(t.chapters)-1]
	}
	text := t.v.text(paraRunes)
	flushes := t.sess.Flushes()
	ph.attempted.Add(1)
	for i := 0; i < paraRunes; i++ {
		if off := ch.runes + i; off%burstSample == 0 {
			ch.typedAt[off/burstSample].Store(int64(time.Since(b.t0)))
		}
		if err := t.sess.Type(text[i : i+1]); err != nil {
			ph.fail(&ph.op)
			return fmt.Errorf("%s: type: %w", t.name, err)
		}
	}
	err := t.sess.Wait()
	done := time.Now()
	ph.batches.Add(int64(t.sess.Flushes() - flushes))
	if err != nil {
		ph.fail(&ph.op)
		return fmt.Errorf("%s: wait: %w", t.name, err)
	}
	ph.add(&ph.op, done.Sub(due))
	acked := done.Sub(b.t0)
	for off := roundUp(ch.runes, burstSample); off < ch.runes+paraRunes; off += burstSample {
		ph.add(&ph.ack, acked-time.Duration(ch.typedAt[off/burstSample].Load()))
	}
	ch.want.WriteString(text)
	ch.runes += paraRunes
	ch.paras++
	ph.count(paraRunes, 1)
	b.typed.Add(paraRunes)
	return nil
}

func (b *burst) settle(st *stack) []string {
	var problems []string
	for _, t := range b.typists {
		for _, ch := range t.chapters {
			want := ch.want.String()
			d, err := st.cl.OpenDocument(util.ID(ch.id))
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			if got := d.Snapshot().Text(); got != want {
				problems = append(problems, checkReplica(fmt.Sprintf("server's copy of chapter %d (against the paragraphs typed)", ch.id), got, want)...)
				continue
			}
			if waitFor(10*time.Second, func() bool { return ch.own.Text() == want && ch.peer.Text() == want }) != nil {
				problems = append(problems, checkReplica(t.name, ch.own.Text(), want)...)
				problems = append(problems, checkReplica(t.peer.name, ch.peer.Text(), want)...)
			}
		}
	}
	return problems
}

func (b *burst) closeClients() {
	for _, t := range b.typists {
		if t != nil {
			t.c.Close()
		}
	}
}

func (b *burst) chars() int64 { return b.typed.Load() }

func (b *burst) headline(r *report, ph *phase) {
	series(r, "paragraph_ms", ph.op)
}
