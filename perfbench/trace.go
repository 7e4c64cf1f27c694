package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

// span is one timed call the benchmark made into a layer. Parent is the
// ID of the span that caused it (0 = none); spans of one request share
// Req.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. It records only while
// on, so one run can time an untraced half and a traced half. A nil
// tracer records nothing.
type tracer struct {
	t0 time.Time
	on atomic.Bool
	// ambient is the parent given to spans recorded by the storage and
	// WAL wrappers, which cannot see their caller (restart phases set it).
	ambient atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// setAmbient makes id the parent of wrapper spans until reset to 0.
func (t *tracer) setAmbient(id int32) {
	if t != nil {
		t.ambient.Store(id)
	}
}

func (t *tracer) parent() int32 {
	if t == nil {
		return 0
	}
	return t.ambient.Load()
}

// begin opens a span and returns its ID (0 when not recording).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.active() {
		return 0
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes a span begun while recording.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were taken elsewhere.
func (t *tracer) record(name string, start, end time.Time, parent int32, req int64) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Req: req})
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) count(name string) int {
	return len(t.durations(name))
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-covered(s.Start, s.End, kids[s.ID])) / 1e6
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDisk is a storage.DiskManager that records a span per page read
// and write, injected under the buffer pool through db.OpenWith.
type timedDisk struct {
	storage.DiskManager
	tr *tracer
}

func (d *timedDisk) ReadPage(id storage.PageID, buf []byte) error {
	sp := d.tr.begin("storage.read", d.tr.parent(), int64(id))
	err := d.DiskManager.ReadPage(id, buf)
	d.tr.end(sp)
	return err
}

func (d *timedDisk) WritePage(id storage.PageID, buf []byte) error {
	sp := d.tr.begin("storage.write", d.tr.parent(), int64(id))
	err := d.DiskManager.WritePage(id, buf)
	d.tr.end(sp)
	return err
}

// timedStore is a wal.Store that records a span per append and fsync and
// counts the bytes appended while recording.
type timedStore struct {
	wal.Store
	tr    *tracer
	bytes atomic.Int64
}

func (s *timedStore) Append(b []byte) error {
	sp := s.tr.begin("wal.append", s.tr.parent(), int64(len(b)))
	err := s.Store.Append(b)
	s.tr.end(sp)
	if sp != 0 {
		s.bytes.Add(int64(len(b)))
	}
	return err
}

func (s *timedStore) Sync() error {
	sp := s.tr.begin("wal.sync", s.tr.parent(), 0)
	err := s.Store.Sync()
	s.tr.end(sp)
	return err
}
