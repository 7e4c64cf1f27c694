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
	"tendax/internal/search"
	"tendax/internal/security"
	"tendax/internal/server"
	"tendax/internal/util"
)

// search: reads with writes beside them, on a corpus larger than the
// buffer pool. Setup writes a corpus of searchDocs documents of Zipf text
// with paste chains between them (so lineage has edges) and access rules
// hiding some documents and some ranges from the reader, then restarts
// the daemon on that directory. In the timed phase one connection runs
// closed-loop reads — Search with varied terms, rank and limit;
// Provenance; Open plus Read of a random document — and the other makes
// open-loop word edits at searchEditRate into random documents, each
// carrying a fresh token that it then polls Search for until found.
const (
	searchDocs     = 240
	searchEditRate = 20              // word edits per second
	searchFresh    = 5 * time.Second // a token not found by then is a failure
)

var ranks = []string{string(search.ByRelevance), string(search.ByNewest), string(search.ByMostCited), string(search.ByMostRead)}

type searchLoad struct {
	seed int64
	tr   *tracer
	st   *stack
	v    *vocab

	writer, reader *client.Client
	wdocs          map[uint64]*client.Doc
	wrng, rrng     *rand.Rand
	rz             *rand.Zipf // the reader's term choice
	pw             map[string]string

	mu       sync.Mutex // guards sdoc.text and problems
	docs     []*sdoc
	byID     map[uint64]*sdoc
	readable []*sdoc // documents the reader may open
	problems []string
	edits    int
	typed    atomic.Int64
	t0       time.Time // anchor of the writer's schedule
}

// sdoc is the benchmark's model of one corpus document.
type sdoc struct {
	id          uint64
	text        []rune
	docDenied   bool // the reader may not read the document
	rangeDenied bool // part of the document is hidden from the reader
	// inFlight counts the writer's edits sent but not yet folded into
	// text; a read racing one may see the edit or not.
	inFlight int
}

func newSearch(seed int64, tr *tracer) *searchLoad {
	return &searchLoad{seed: seed, tr: tr, byID: map[uint64]*sdoc{}, wdocs: map[uint64]*client.Doc{},
		pw: map[string]string{}}
}

func (s *searchLoad) auth() bool { return true }

func (s *searchLoad) probe() probeSpec {
	spec := probeSpec{runes: 8, fill: 800, secUser: "reader",
		grid: s.t0, offset: time.Second / searchEditRate / 2}
	for _, d := range s.docs {
		if d.rangeDenied {
			spec.secDoc = util.ID(d.id)
			break
		}
	}
	return spec
}

func (s *searchLoad) dial(st *stack, user string) (*client.Client, error) {
	return client.Dial(st.addr, client.WithMaxVersion(protocol.VersionMax),
		client.WithUser(user), client.WithPassword(s.pw[user]))
}

func (s *searchLoad) setup(st *stack) (*stack, error) {
	rng := rand.New(rand.NewSource(s.seed))
	s.v = newVocab(rng, 4000)
	s.wrng = rand.New(rand.NewSource(s.seed*7919 + 1))
	s.rrng = rand.New(rand.NewSource(s.seed*7919 + 2))
	s.rz = rand.NewZipf(s.rrng, 1.2, 1, uint64(len(s.v.words)-1))
	for _, u := range []string{"writer", "reader"} {
		s.pw[u] = fmt.Sprintf("pw-%s-%d", u, s.seed)
		if err := st.sec.CreateUser(u, s.pw[u]); err != nil {
			return st, err
		}
	}
	w, err := s.dial(st, "writer")
	if err != nil {
		return st, err
	}
	opened := make(map[uint64]*client.Doc, searchDocs)
	for i := 0; i < searchDocs; i++ {
		id, err := w.CreateDocument(fmt.Sprintf("doc-%d", i))
		if err != nil {
			return st, err
		}
		d, err := w.Open(id)
		if err != nil {
			return st, err
		}
		opened[id] = d
		text := s.v.text(400 + rng.Intn(800))
		res, err := d.EditBatch([]protocol.EditOp{{Kind: protocol.EditInsert, Text: text}})
		if err != nil {
			return st, err
		}
		sd := &sdoc{id: id, text: []rune(text)}
		s.typed.Add(int64(len(sd.text)))
		if i > 0 && rng.Intn(3) == 0 {
			// Paste a span of an earlier document, which may itself hold
			// pasted text: chains of provenance.
			src := s.docs[rng.Intn(i)]
			n := 40 + rng.Intn(80)
			from := rng.Intn(len(src.text) - n)
			clip, err := opened[src.id].Copy(from, n)
			if err != nil {
				return st, err
			}
			if clip.Text != string(src.text[from:from+n]) {
				return st, fmt.Errorf("copy of doc %d returned %q, want %q", src.id, clip.Text, string(src.text[from:from+n]))
			}
			at := rng.Intn(len(sd.text) + 1)
			if err := d.Paste(at, clip); err != nil {
				return st, err
			}
			sd.text = splice(sd.text, at, []rune(clip.Text))
			s.typed.Add(int64(n))
		}
		switch r := rng.Intn(10); {
		case r == 0:
			if _, err := st.sec.Deny("writer", util.ID(id), security.UserPrefix+"reader", core.RRead); err != nil {
				return st, err
			}
			sd.docDenied = true
		case r == 1:
			ids := res[0].IDs
			a := rng.Intn(len(ids) - 200)
			if _, err := st.sec.DenyRange("writer", util.ID(id), security.UserPrefix+"reader", core.RRead,
				util.ID(ids[a]), util.ID(ids[a+50+rng.Intn(150)])); err != nil {
				return st, err
			}
			sd.rangeDenied = true
		}
		s.docs = append(s.docs, sd)
		s.byID[id] = sd
		if !sd.docDenied {
			s.readable = append(s.readable, sd)
		}
	}
	w.Close()

	// Restart the daemon on the corpus, then connect the workload's two
	// clients; the writer holds a replica of every document.
	dir := st.dir
	if err := st.close(); err != nil {
		return nil, err
	}
	if st, err = openStack(dir, true, s.tr); err != nil {
		return nil, err
	}
	s.st = st
	if s.writer, err = s.dial(st, "writer"); err != nil {
		return st, err
	}
	if s.reader, err = s.dial(st, "reader"); err != nil {
		return st, err
	}
	for _, d := range s.docs {
		if s.wdocs[d.id], err = s.writer.Open(d.id); err != nil {
			return st, err
		}
	}
	s.t0 = time.Now()
	return st, nil
}

func splice(r []rune, at int, ins []rune) []rune {
	out := make([]rune, 0, len(r)+len(ins))
	out = append(out, r[:at]...)
	out = append(out, ins...)
	return append(out, r[at:]...)
}

func (s *searchLoad) problem(format string, args ...interface{}) {
	s.mu.Lock()
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *searchLoad) run(d time.Duration, ph *phase) error {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var werr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		werr = s.write(d, ph)
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.read(ph)
		}
	}()
	wg.Wait()
	return werr
}

// write makes the open-loop word edits.
func (s *searchLoad) write(d time.Duration, ph *phase) error {
	n := int(d.Seconds() * searchEditRate)
	start := nextSlot(s.t0, 0, time.Second/searchEditRate, time.Now().Add(time.Millisecond))
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / searchEditRate)
		pace(due)
		sent := time.Now()
		ph.add(&ph.late, sent.Sub(due))
		ph.attempted.Add(1)

		sd := s.docs[s.wrng.Intn(len(s.docs))]
		s.mu.Lock()
		at := len(sd.text)
		if p := s.wrng.Intn(len(sd.text) + 1); p < len(sd.text) {
			for at = p; at < len(sd.text) && sd.text[at] != ' '; at++ {
			}
		}
		tok := tokenFor(s.seed, s.edits)
		s.edits++
		sd.inFlight++
		s.mu.Unlock()
		text := " " + tok
		ph.batches.Add(1)
		_, err := s.wdocs[sd.id].EditBatch([]protocol.EditOp{{Kind: protocol.EditInsert, Pos: at, Text: text}})
		acked := time.Now()
		if err != nil {
			s.mu.Lock()
			sd.inFlight--
			s.mu.Unlock()
			ph.fail(&ph.ack, &ph.visible)
			continue
		}
		ph.add(&ph.ack, acked.Sub(due))
		ph.add(&ph.rtt, acked.Sub(sent))
		ph.count(int64(len(text)), 0)
		s.typed.Add(int64(len(text)))
		s.mu.Lock()
		sd.text = splice(sd.text, at, []rune(text))
		sd.inFlight--
		s.mu.Unlock()

		// Poll until the index answers with the new token.
		for {
			hits, err := s.writer.Search(client.SearchQuery{Terms: []string{tok}})
			if err != nil {
				ph.fail(&ph.visible)
				break
			}
			if len(hits) > 0 {
				found := time.Now()
				if len(hits) != 1 || hits[0].Doc.ID != sd.id {
					s.problem("search for fresh token %s returned %d hits, first doc %d; want doc %d", tok, len(hits), hits[0].Doc.ID, sd.id)
				}
				ph.add(&ph.fresh, found.Sub(acked))
				ph.add(&ph.visible, found.Sub(due))
				break
			}
			if time.Since(acked) > searchFresh {
				ph.fail(&ph.visible)
				s.problem("token %s never became searchable", tok)
				break
			}
		}
	}
	return nil
}

// read runs one closed-loop read: half Search, a quarter Provenance, a
// quarter Open plus Read.
func (s *searchLoad) read(ph *phase) {
	ph.attempted.Add(1)
	var err error
	start := time.Now()
	switch r := s.rrng.Intn(4); {
	case r < 2:
		err = s.search(ph)
	case r == 2:
		sd := s.readable[s.rrng.Intn(len(s.readable))]
		s.mu.Lock()
		n := len(sd.text)
		s.mu.Unlock()
		pos := s.rrng.Intn(n - 64)
		var refs []protocol.SourceRef
		if refs, err = s.reader.Provenance(sd.id, pos, 64); err == nil {
			for _, ref := range refs {
				if ref.From < pos || ref.To > pos+64 || ref.From > ref.To {
					s.problem("provenance of doc %d [%d,%d) returned run [%d,%d)", sd.id, pos, pos+64, ref.From, ref.To)
				}
			}
		}
	default:
		sd := s.readable[s.rrng.Intn(len(s.readable))]
		var d *client.Doc
		if d, err = s.reader.Open(sd.id); err == nil {
			s.mu.Lock()
			want, racing := string(sd.text), sd.inFlight > 0
			s.mu.Unlock()
			var text string
			if text, err = d.Read(); err == nil {
				s.mu.Lock()
				racing = racing || sd.inFlight > 0 || string(sd.text) != want
				s.mu.Unlock()
				switch {
				case racing:
					// A writer's edit overlapped the read; either text is right.
				case sd.rangeDenied && len([]rune(text)) >= len([]rune(want)):
					s.problem("read of range-restricted doc %d returned every character", sd.id)
				case !sd.rangeDenied && text != want:
					s.problem("read of doc %d differs from the generated text", sd.id)
				}
			}
		}
	}
	if err != nil {
		ph.fail(&ph.op)
		return
	}
	ph.add(&ph.op, time.Since(start))
	ph.count(0, 1)
}

// search runs one Search and checks its hits against the generated text.
func (s *searchLoad) search(ph *phase) error {
	terms := []string{s.v.words[s.rz.Uint64()]}
	if s.rrng.Intn(3) == 0 {
		terms = append(terms, s.v.words[s.rz.Uint64()])
	}
	q := client.SearchQuery{Terms: terms, Rank: ranks[s.rrng.Intn(len(ranks))], Limit: []int{5, 10, 20}[s.rrng.Intn(3)]}
	hits, err := s.reader.Search(q)
	if err != nil {
		return err
	}
	if s.tr.active() {
		// The same query straight into the index, unfiltered.
		sp := s.tr.begin("index.query", 0, 0)
		_, err := s.st.cl.Index().Query(search.Query{Terms: q.Terms, Rank: search.Ranker(q.Rank)})
		s.tr.end(sp)
		if err != nil {
			return err
		}
	}
	if len(hits) > q.Limit {
		s.problem("search %v returned %d hits over its limit %d", terms, len(hits), q.Limit)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.problems = append(s.problems, checkHits(terms, hits, s.byID)...)
	for _, h := range hits {
		for _, r := range h.Snippet {
			ph.pushed.Add(1)
			if r == server.MaskRune {
				ph.masked.Add(1)
			}
		}
	}
	return nil
}

// checkHits checks a reader's search hits against the generated text:
// every hit is a corpus document the reader may read whose text holds
// every term as a word. The traced run's probe document is outside the
// corpus and skipped.
func checkHits(terms []string, hits []protocol.SearchHit, docs map[uint64]*sdoc) []string {
	var out []string
	for _, h := range hits {
		sd := docs[h.Doc.ID]
		switch {
		case sd == nil && h.Doc.Name == "probe":
		case sd == nil:
			out = append(out, fmt.Sprintf("search %v returned unknown doc %d", terms, h.Doc.ID))
		case sd.docDenied:
			out = append(out, fmt.Sprintf("search %v returned doc %d, which the reader may not read", terms, h.Doc.ID))
		default:
			text := string(sd.text)
			for _, t := range terms {
				if !hasWord(text, t) {
					out = append(out, fmt.Sprintf("search %v returned doc %d, whose text lacks %q", terms, h.Doc.ID, t))
				}
			}
		}
	}
	return out
}

func (s *searchLoad) settle(st *stack) []string {
	s.mu.Lock()
	problems := append([]string(nil), s.problems...)
	s.mu.Unlock()
	texts, err := st.texts()
	if err != nil {
		return append(problems, err.Error())
	}
	for _, sd := range s.docs {
		if got := texts[util.ID(sd.id)]; got != string(sd.text) {
			problems = append(problems, checkReplica(fmt.Sprintf("server's copy of doc %d (against the generated text)", sd.id), got, string(sd.text))...)
		}
		if got := s.wdocs[sd.id].Text(); waitFor(10*time.Second, func() bool {
			got = s.wdocs[sd.id].Text()
			return got == string(sd.text)
		}) != nil {
			problems = append(problems, checkReplica("writer", got, string(sd.text))...)
		}
	}
	return problems
}

func (s *searchLoad) closeClients() {
	for _, c := range []*client.Client{s.writer, s.reader} {
		if c != nil {
			c.Close()
		}
	}
}

func (s *searchLoad) chars() int64 { return s.typed.Load() }

func (s *searchLoad) headline(r *report, ph *phase) {
	series(r, "query_ms", ph.op)
	r.set("queries_per_s", "1/s", float64(ph.ops.Load())/ph.elapsed.Seconds())
	r.set("search_fresh_ms_p50", "ms", ph.fresh.pct(0.5))
}
