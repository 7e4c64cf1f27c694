// Package search implements the TeNDaX meta-data-based searching and
// ranking plug-in: documents and parts of documents are found by content,
// by structure (headings), or by creation-process metadata, and results are
// ranked by relevance, recency, citations (lineage in-degree) or reads —
// the paper's "most cited" / "newest" ranking options.
package search

import (
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"tendax/internal/core"
	"tendax/internal/folders"
	"tendax/internal/lineage"
	"tendax/internal/mining"
	"tendax/internal/util"
)

// Ranker selects the result ordering.
type Ranker string

// Ranking options.
const (
	ByRelevance Ranker = "relevance"
	ByNewest    Ranker = "newest"
	ByMostCited Ranker = "most-cited"
	ByMostRead  Ranker = "most-read"
)

// Query describes one search.
type Query struct {
	Terms      []string          // content terms (AND semantics)
	InHeadings bool              // restrict matching to heading spans
	Filter     folders.Predicate // optional metadata filter
	Rank       Ranker            // default ByRelevance
	Limit      int               // 0 = no limit
}

// Result is one ranked hit.
type Result struct {
	Doc     core.DocInfo
	Score   float64
	Snippet string
}

// Index is the searchable view over an engine: an inverted index over
// content plus heading text. It carries no locking of its own — the
// incremental index.Service serialises access, and the legacy BuildIndex
// path is single-threaded.
type Index struct {
	eng      *core.Engine
	postings map[string]map[util.ID]int // term -> doc -> tf
	terms    map[util.ID]map[string]int // doc -> tf (reverse view, for diffing)
	headings map[util.ID]string         // doc -> concatenated heading text
	lengths  map[util.ID]int
	snippets map[util.ID]string
	docs     map[util.ID]core.DocInfo
	cites    map[util.ID]int
	reads    map[util.ID]int
}

// New returns an empty index ready for incremental maintenance via
// UpdateDoc/SetCites/SetReads (the index.Service path).
func New(eng *core.Engine) *Index {
	return &Index{
		eng:      eng,
		postings: make(map[string]map[util.ID]int),
		terms:    make(map[util.ID]map[string]int),
		headings: make(map[util.ID]string),
		lengths:  make(map[util.ID]int),
		snippets: make(map[util.ID]string),
		docs:     make(map[util.ID]core.DocInfo),
		cites:    make(map[util.ID]int),
		reads:    make(map[util.ID]int),
	}
}

// BuildIndex constructs the index by rescanning the current document set.
//
// Deprecated: the rescan touches every document on every build; open an
// incremental index.Service instead, which folds the awareness op stream
// into the same structures in O(ops). BuildIndex remains as the reference
// oracle the equivalence tests rebuild from scratch.
func BuildIndex(eng *core.Engine) (*Index, error) {
	ix := New(eng)
	infos, err := eng.ListDocuments()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if err := ix.indexDoc(info); err != nil {
			return nil, err
		}
	}
	g, err := lineage.Build(eng)
	if err != nil {
		return nil, err
	}
	for id := range ix.docs {
		ix.cites[id] = g.CitationCount(id)
		if evs, err := eng.ReadEventsOf(id); err == nil {
			ix.reads[id] = len(evs)
		}
	}
	return ix, nil
}

func (ix *Index) indexDoc(info core.DocInfo) error {
	d, err := ix.eng.OpenDocument(info.ID)
	if err != nil {
		return err
	}
	text := d.Text()
	spans, err := d.Spans()
	if err != nil {
		return err
	}
	ix.UpdateDoc(d.Info(), text, HeadingText(text, spans, d.SpanRange))
	return nil
}

// HeadingText concatenates (lowercased) the text of every heading span,
// resolved through rangeOf — a Document.SpanRange or DocSnapshot.SpanRange
// bound method, so the rescan and snapshot paths compute byte-identical
// heading strings.
func HeadingText(text string, spans []core.Span, rangeOf func(core.Span) (int, int)) string {
	var hb strings.Builder
	c := runeCursor{s: text}
	for _, s := range spans {
		if s.Kind != core.SpanHeading {
			continue
		}
		from, to := rangeOf(s)
		if from >= to {
			continue
		}
		i, okFrom := c.offset(from)
		j, okTo := c.offset(to)
		if okFrom && okTo {
			hb.WriteString(text[i:j])
			hb.WriteString(" ")
		}
	}
	return strings.ToLower(hb.String())
}

// runeCursor maps rune indices of one string to byte offsets by walking
// forward from the previous lookup, so rune-addressed slicing never
// decodes the whole text; an index before the cursor restarts the walk.
type runeCursor struct {
	s        string
	idx, off int // rune index idx starts at byte off
}

// offset returns the byte offset of rune index k, or false when s has
// fewer than k runes (k equal to the rune count maps to len(s)).
func (c *runeCursor) offset(k int) (int, bool) {
	if k < c.idx {
		c.idx, c.off = 0, 0
	}
	for c.idx < k {
		if c.off == len(c.s) {
			return 0, false
		}
		_, w := utf8.DecodeRuneInString(c.s[c.off:])
		c.off += w
		c.idx++
	}
	return c.off, true
}

// UpdateDoc replaces one document's contribution to the index with the
// given state. The update diffs the new term frequencies against the old
// ones, so its cost is O(terms in the document) regardless of corpus size
// — the property the incremental indexer's per-keystroke bound rests on.
func (ix *Index) UpdateDoc(info core.DocInfo, text, headings string) {
	id := info.ID
	toks := mining.Tokenize(text)
	fresh := make(map[string]int, len(toks))
	for _, t := range toks {
		fresh[t]++
	}
	old := ix.terms[id]
	for t, n := range old {
		if fresh[t] == n {
			continue
		}
		m := ix.postings[t]
		if _, ok := fresh[t]; !ok {
			delete(m, id)
			if len(m) == 0 {
				delete(ix.postings, t)
			}
		}
	}
	for t, n := range fresh {
		if old[t] == n {
			continue
		}
		m := ix.postings[t]
		if m == nil {
			m = make(map[util.ID]int)
			ix.postings[t] = m
		}
		m[id] = n
	}
	ix.terms[id] = fresh
	ix.lengths[id] = len(toks)
	ix.snippets[id] = firstN(text, 80)
	ix.docs[id] = info
	ix.headings[id] = headings
}

// SetCites overrides the citation count used by ByMostCited ranking
// (maintained edge-by-edge by the incremental indexer).
func (ix *Index) SetCites(doc util.ID, n int) { ix.cites[doc] = n }

// SetReads overrides the read count used by ByMostRead ranking.
func (ix *Index) SetReads(doc util.ID, n int) { ix.reads[doc] = n }

// RefreshReads recomputes read counts for every indexed document from the
// reads table. Reads are recorded without publishing a bus event, so the
// incremental indexer calls this lazily when a ByMostRead query arrives.
func (ix *Index) RefreshReads() error {
	for id := range ix.docs {
		evs, err := ix.eng.ReadEventsOf(id)
		if err != nil {
			return err
		}
		ix.reads[id] = len(evs)
	}
	return nil
}

// Refresh re-indexes one document after it changed.
//
// Deprecated: index.Service folds document changes in automatically from
// the awareness op stream; manual refresh remains only for the legacy
// BuildIndex path.
func (ix *Index) Refresh(doc util.ID) error {
	info, err := ix.eng.DocInfoByID(doc)
	if err != nil {
		return err
	}
	return ix.indexDoc(info)
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int { return len(ix.docs) }

// Search executes a query.
func (ix *Index) Search(q Query) ([]Result, error) {
	if q.Rank == "" {
		q.Rank = ByRelevance
	}
	// Candidate set: documents matching every term (in headings if asked),
	// or all documents for a pure metadata query.
	var cands map[util.ID]float64
	if len(q.Terms) == 0 {
		cands = make(map[util.ID]float64, len(ix.docs))
		for id := range ix.docs {
			cands[id] = 0
		}
	} else {
		for i, term := range q.Terms {
			term = strings.ToLower(term)
			var matches map[util.ID]float64
			if q.InHeadings {
				matches = map[util.ID]float64{}
				for id, htext := range ix.headings {
					if strings.Contains(htext, term) {
						matches[id] = 1
					}
				}
			} else {
				matches = map[util.ID]float64{}
				for id, tf := range ix.postings[term] {
					matches[id] = ix.bm25(term, id, tf)
				}
			}
			if i == 0 {
				cands = matches
			} else {
				for id := range cands {
					if w, ok := matches[id]; ok {
						cands[id] += w
					} else {
						delete(cands, id)
					}
				}
			}
		}
	}

	// Metadata filter.
	var ctx *folders.EvalCtx
	if q.Filter != nil {
		ctx = &folders.EvalCtx{
			Now: ix.eng.Clock().Now(),
			Reads: func(user string) []core.ReadEvent {
				evs, err := ix.eng.ReadsByUser(user)
				if err != nil {
					return nil
				}
				return evs
			},
			Props: func(doc core.DocInfo) map[string]string {
				d, err := ix.eng.OpenDocument(doc.ID)
				if err != nil {
					return nil
				}
				p, _ := d.Properties()
				return p
			},
		}
	}

	out := make([]Result, 0, len(cands))
	for id, score := range cands {
		info := ix.docs[id]
		if q.Filter != nil && !q.Filter.Match(ctx, info) {
			continue
		}
		out = append(out, Result{Doc: info, Score: score, Snippet: ix.snippets[id]})
	}
	ix.rank(out, q.Rank)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// bm25 is a BM25-flavoured term weight (k1 = 1.2, b = 0.75).
func (ix *Index) bm25(term string, doc util.ID, tf int) float64 {
	const k1, b = 1.2, 0.75
	df := len(ix.postings[term])
	n := len(ix.docs)
	if df == 0 || n == 0 {
		return 0
	}
	idf := math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
	avgLen := 0.0
	for _, l := range ix.lengths {
		avgLen += float64(l)
	}
	avgLen /= float64(n)
	if avgLen == 0 {
		avgLen = 1
	}
	norm := float64(tf) * (k1 + 1) /
		(float64(tf) + k1*(1-b+b*float64(ix.lengths[doc])/avgLen))
	return idf * norm
}

func (ix *Index) rank(rs []Result, r Ranker) {
	switch r {
	case ByNewest:
		sort.Slice(rs, func(i, j int) bool {
			if !rs[i].Doc.Modified.Equal(rs[j].Doc.Modified) {
				return rs[i].Doc.Modified.After(rs[j].Doc.Modified)
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
	case ByMostCited:
		sort.Slice(rs, func(i, j int) bool {
			ci, cj := ix.cites[rs[i].Doc.ID], ix.cites[rs[j].Doc.ID]
			if ci != cj {
				return ci > cj
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
		for i := range rs {
			rs[i].Score = float64(ix.cites[rs[i].Doc.ID])
		}
	case ByMostRead:
		sort.Slice(rs, func(i, j int) bool {
			ri, rj := ix.reads[rs[i].Doc.ID], ix.reads[rs[j].Doc.ID]
			if ri != rj {
				return ri > rj
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
		for i := range rs {
			rs[i].Score = float64(ix.reads[rs[i].Doc.ID])
		}
	default: // relevance
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Score != rs[j].Score {
				return rs[i].Score > rs[j].Score
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
	}
}

func firstN(s string, n int) string {
	for i := range s {
		if n == 0 {
			return string([]rune(s[:i])) + "…" // invalid bytes become U+FFFD
		}
		n--
	}
	return s
}

// Freshness of metadata used by rankers decays as documents change; call
// RefreshStats to recompute citation and read counts.
//
// Deprecated: the incremental query subsystem (index.Open) keeps these
// statistics fresh from the op stream; RefreshStats re-walks the whole
// store and remains only for embedded users of the static index.
func (ix *Index) RefreshStats() error {
	g, err := lineage.Build(ix.eng)
	if err != nil {
		return err
	}
	for id := range ix.docs {
		ix.cites[id] = g.CitationCount(id)
		if evs, err := ix.eng.ReadEventsOf(id); err == nil {
			ix.reads[id] = len(evs)
		}
	}
	return nil
}
