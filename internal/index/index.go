// Package index maintains the search and lineage structures incrementally
// from the awareness op stream — the Telex-style inversion of the seed's
// rescan constructors (search.BuildIndex, lineage.Build): derived state is
// folded forward from the durable action log in O(ops) instead of being
// recomputed from materialized documents in O(corpus).
//
// A Service subscribes to every document's bus with the multi-tenant
// SubscribeOpts API (bounded queue, shed-and-resync on overflow) and
// resolves any text or character metadata it needs against immutable
// DocSnapshots, so indexing never contends on a document write lock.
// Character instances are keyed by their stable IDs (the Sun et al.
// argument): an insert event names exactly the instances it created, which
// is what makes lineage folding exact under concurrency, shedding and
// replay — counting is idempotent per instance ID.
//
// Freshness model: folding an event is O(edit). Typed inserts carry no
// source document, so only pastes resolve their instances against a
// snapshot (for lineage); every other event just marks its document
// dirty. Query and Sync re-tokenize the dirty documents from their latest
// snapshots before answering — so queries are exact with respect to all
// folded events, while a typing burst costs one re-tokenize at the next
// query, not one per keystroke.
package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/lineage"
	"tendax/internal/search"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// Option configures a Service (the client.Dial functional-option pattern).
type Option func(*options)

type options struct {
	queueLimit int
}

// WithQueueLimit bounds each per-document subscription queue; overflow
// sheds and heals from the op ring (tests use tiny limits to force the
// gap-heal path). 0 keeps the bus default.
func WithQueueLimit(n int) Option {
	return func(o *options) { o.queueLimit = n }
}

// Stats is a point-in-time view of indexer progress for /metrics.
type Stats struct {
	Docs    int   `json:"docs"`        // documents under maintenance
	Applied int64 `json:"applied_ops"` // events folded since Open
	Heals   int64 `json:"heals"`       // gap heals (shed subscriptions resynced)
	Lag     int   `json:"lag_docs"`    // dirty docs the next Query/Sync will re-tokenize
}

// Service is the incremental index over one engine: the live replacement
// for the search.BuildIndex / lineage.Build rescans. All reads go through
// Query/Provenance/Chain/Graph; Close detaches from the bus.
type Service struct {
	eng  *core.Engine
	opts options

	mu      sync.Mutex
	ix      *search.Index
	g       *lineage.Graph
	cites   map[util.ID]int
	counted map[util.ID]bool // sourced char instances already folded into g
	dirty   map[util.ID]bool // docs whose text/metadata needs re-resolving
	states  map[util.ID]*docState
	closed  bool
	// folded is broadcast (on mu) whenever a pump may have advanced a
	// doc's seq, and on Close: waitFolded sleeps on it.
	folded sync.Cond

	wg sync.WaitGroup // pumps

	applied atomic.Int64
	heals   atomic.Int64
}

type docState struct {
	d   *core.Document
	sub *awareness.Subscription
	seq uint64 // highest bus sequence folded for this doc
}

// Open attaches an incremental indexer to eng: it primes from the current
// document set (one immutable snapshot per document) and then follows the
// awareness stream. New documents created on eng are picked up
// automatically.
func Open(eng *core.Engine, opts ...Option) (*Service, error) {
	s := &Service{
		eng:     eng,
		ix:      search.New(eng),
		g:       lineage.NewGraph(),
		cites:   make(map[util.ID]int),
		counted: make(map[util.ID]bool),
		dirty:   make(map[util.ID]bool),
		states:  make(map[util.ID]*docState),
	}
	s.folded.L = &s.mu
	for _, o := range opts {
		o(&s.opts)
	}
	// Register the observer before enumerating, so a document created
	// concurrently with Open is seen at least once (addDoc is idempotent).
	eng.SetDocObserver(func(id util.ID, external bool) {
		if external {
			s.addExternal(id)
			return
		}
		if err := s.addDoc(id); err != nil {
			// The document row committed, so this is a shutdown race;
			// a later query will not see a half-indexed doc either way.
			_ = err
		}
	})
	infos, err := eng.ListDocuments()
	if err != nil {
		s.detach()
		return nil, err
	}
	exts, err := eng.ExternalSources()
	if err != nil {
		s.detach()
		return nil, err
	}
	s.mu.Lock()
	for _, info := range exts {
		s.g.EnsureNode(info.ID, info.Name, true)
	}
	s.mu.Unlock()
	for _, info := range infos {
		if err := s.addDoc(info.ID); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *Service) detach() { s.eng.SetDocObserver(nil) }

func (s *Service) addExternal(id util.ID) {
	info, err := s.eng.DocInfoByID(id)
	if err != nil {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.g.EnsureNode(id, info.Name, true)
	}
	s.mu.Unlock()
}

// addDoc brings one document under maintenance: subscribe first, snapshot
// second — every event not reflected in the snapshot then has a sequence
// above the snapshot's, so the pump's seq guard makes the handoff exact.
func (s *Service) addDoc(id util.ID) error {
	d, err := s.eng.OpenDocument(id)
	if err != nil {
		return err
	}
	sub := s.eng.Bus().Subscribe(id, awareness.SubscribeOpts{
		QueueLimit:     s.opts.queueLimit,
		OverflowPolicy: awareness.ShedAndResync,
	})
	snap, seq := d.SnapshotSeq()

	s.mu.Lock()
	if s.closed || s.states[id] != nil {
		s.mu.Unlock()
		sub.Close()
		return nil
	}
	st := &docState{d: d, sub: sub, seq: seq}
	s.states[id] = st
	s.countTreeLocked(id, snap)
	s.refreshDocLocked(id, snap)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.pump(id, st)
	return nil
}

// countTreeLocked folds every character instance of an immutable snapshot
// into the lineage graph: the initial build for this doc, and the
// fallback when a gap outlived the op ring. It is idempotent — counting is
// keyed by character-instance ID.
func (s *Service) countTreeLocked(id util.ID, snap *core.DocSnapshot) {
	snap.Tree().WalkAll(func(ch *texttree.Char, _ bool) bool {
		s.countCharLocked(id, ch.ID, ch.SourceDoc, ch.Created)
		return true
	})
}

// countCharLocked folds one character instance into the lineage graph,
// exactly once per instance ID. Unsourced instances (typed text, or a
// paste within the document) add no edge and are never recorded.
func (s *Service) countCharLocked(doc, char, src util.ID, created time.Time) {
	if src.IsNil() || src == doc || s.counted[char] {
		return
	}
	s.counted[char] = true
	if s.g.AddChar(src, doc, created) {
		s.cites[src]++
		s.ix.SetCites(src, s.cites[src])
	}
}

// pump is the per-document fold loop: one goroutine per subscription.
func (s *Service) pump(id util.ID, st *docState) {
	defer s.wg.Done()
	for {
		ev, ok := st.sub.Next()
		if !ok {
			return
		}
		s.fold(id, st, ev)
	}
}

func (s *Service) fold(id util.ID, st *docState, ev awareness.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	defer s.folded.Broadcast()
	if ev.Kind == awareness.EvGap {
		s.healLocked(id, st, ev)
		return
	}
	if ev.Seq <= st.seq {
		return // already reflected in the priming snapshot or a heal
	}
	st.seq = ev.Seq
	s.foldEventLocked(id, ev)
}

// foldEventLocked applies one event's index consequences. Presence-class
// events (join/leave/cursor/presence) carry no document state and are
// skipped; everything else marks the doc dirty so the next Query or Sync
// re-resolves text and metadata against the latest snapshot. Only pastes
// create sourced instances (typed inserts never carry SourceDoc), so they
// alone are resolved here; undo/redo only resurface instances the tree
// already held, which counting per instance ID has seen.
func (s *Service) foldEventLocked(id util.ID, ev awareness.Event) {
	switch ev.Kind {
	case awareness.EvJoin, awareness.EvLeave, awareness.EvCursor, awareness.EvPresence:
		return
	case awareness.EvPaste:
		s.countIDsLocked(id, ev.IDs)
	case awareness.EvBatch:
		for _, it := range ev.Batch {
			if it.Kind == awareness.EvPaste {
				s.countIDsLocked(id, it.IDs)
			}
		}
	}
	s.applied.Add(1)
	s.dirty[id] = true
}

// countIDsLocked resolves pasted character instances against the latest
// committed snapshot (the event may be older than the snapshot — later
// snapshots still contain the instances, tombstoned or not).
func (s *Service) countIDsLocked(id util.ID, ids []util.ID) {
	if len(ids) == 0 {
		return
	}
	st := s.states[id]
	if st == nil {
		return
	}
	tree := st.d.Snapshot().Tree()
	for _, cid := range ids {
		if s.counted[cid] {
			continue
		}
		ch, ok := tree.Char(cid)
		if !ok {
			continue // compacted away already; the heal recount owns it
		}
		s.countCharLocked(id, cid, ch.SourceDoc, ch.Created)
	}
}

// healLocked recovers from a shed subscription: replay the missed events
// from the op ring when it still covers the gap, otherwise re-prime the
// document from a fresh snapshot (idempotent).
func (s *Service) healLocked(id util.ID, st *docState, gap awareness.Event) {
	s.heals.Add(1)
	evs, ok := s.eng.Bus().EventsSince(id, st.seq)
	if ok {
		for _, ev := range evs {
			if ev.Seq <= st.seq {
				continue
			}
			st.seq = ev.Seq
			s.foldEventLocked(id, ev)
		}
		return
	}
	// Gap outlived the ring: recount this document's instances; its text
	// is re-tokenized at the next Query or Sync, like any folded edit.
	snap, seq := st.d.SnapshotSeq()
	if seq < gap.Seq {
		seq = gap.Seq
	}
	st.seq = seq
	s.countTreeLocked(id, snap)
	s.dirty[id] = true
}

// flushDirtyLocked re-tokenizes every dirty document once: a burst of N
// events on one doc between two queries costs one re-tokenize, which is
// what keeps per-keystroke maintenance cost flat as documents grow (E19).
func (s *Service) flushDirtyLocked() {
	for id := range s.dirty {
		delete(s.dirty, id)
		st := s.states[id]
		if st == nil {
			continue
		}
		s.refreshDocLocked(id, st.d.Snapshot())
	}
}

// refreshDocLocked re-resolves one document's text, headings and metadata
// from an immutable snapshot and swaps them into the search index. The
// docs-table row is read directly (DocInfoByID) so no document mutex is
// ever taken on the index path.
func (s *Service) refreshDocLocked(id util.ID, snap *core.DocSnapshot) {
	info, err := s.eng.DocInfoByID(id)
	if err != nil {
		return // row gone mid-shutdown; nothing to index
	}
	text := snap.Text()
	spans, err := snap.Spans()
	if err != nil {
		spans = nil
	}
	s.ix.UpdateDoc(info, text, search.HeadingText(text, spans, snap.SpanRange))
	s.g.EnsureNode(id, info.Name, false)
}

// Sync blocks until every event published before the call has been folded
// and re-tokenized: the strong-freshness barrier tests and benchmarks
// quiesce on.
func (s *Service) Sync() {
	s.waitFolded()
	s.mu.Lock()
	s.flushDirtyLocked()
	s.mu.Unlock()
}

// waitFolded blocks until every event published before the call has been
// folded (but not necessarily re-tokenized), or the service is closed.
func (s *Service) waitFolded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	behind := make(map[util.ID]uint64)
	for id, st := range s.states {
		if want := s.eng.Bus().Seq(id); st.seq < want {
			behind[id] = want
		}
	}
	for len(behind) > 0 && !s.closed {
		s.folded.Wait()
		for id, want := range behind {
			if s.states[id].seq >= want {
				delete(behind, id)
			}
		}
	}
}

// Query answers a search over the incrementally maintained index. Dirty
// documents are re-resolved first, so results are exact with respect to
// every event folded so far.
func (s *Service) Query(q search.Query) ([]search.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("index: service closed")
	}
	s.flushDirtyLocked()
	if q.Rank == search.ByMostRead {
		// Reads are recorded without a bus event; resolve them at query
		// time, exactly as a fresh rebuild would.
		if err := s.ix.RefreshReads(); err != nil {
			return nil, err
		}
	}
	return s.ix.Search(q)
}

// Provenance explains where the visible range [pos, pos+n) of doc came
// from (lineage.SourceRef runs, nearest first).
func (s *Service) Provenance(doc util.ID, pos, n int) ([]lineage.SourceRef, error) {
	return lineage.ProvenanceOfRange(s.eng, doc, pos, n)
}

// Chain returns the transitive pedigree of one character instance.
func (s *Service) Chain(charID util.ID) ([]core.CharMeta, error) {
	return lineage.ProvenanceChain(s.eng, charID)
}

// CitationCount returns how many distinct documents pasted from doc,
// according to the incrementally maintained graph.
func (s *Service) CitationCount(doc util.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cites[doc]
}

// Graph returns a deep copy of the maintained provenance graph (safe to
// render or mine while writers keep typing).
func (s *Service) Graph() *lineage.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := lineage.NewGraph()
	for id, n := range s.g.Nodes {
		g.Nodes[id] = &lineage.Node{Doc: n.Doc, Name: n.Name, External: n.External}
	}
	for k, e := range s.g.Edges {
		cp := *e
		g.Edges[k] = &cp
	}
	return g
}

// Stats reports indexer progress counters for /metrics.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	docs, lag := len(s.states), len(s.dirty)
	s.mu.Unlock()
	return Stats{
		Docs:    docs,
		Applied: s.applied.Load(),
		Heals:   s.heals.Load(),
		Lag:     lag,
	}
}

// Close detaches from the bus and stops all maintenance goroutines.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.folded.Broadcast()
	subs := make([]*awareness.Subscription, 0, len(s.states))
	for _, st := range s.states {
		subs = append(subs, st.sub)
	}
	s.mu.Unlock()
	s.detach()
	for _, sub := range subs {
		sub.Close()
	}
	s.wg.Wait()
}
