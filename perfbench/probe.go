package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// probeUser owns the probe document, which only the benchmark's direct
// calls edit.
const probeUser = "probe"

// probeSpec is a workload's op shape for the direct calls a traced run
// makes into core, awareness, protocol and security.
type probeSpec struct {
	runes int // runes per probe insert
	fill  int // runes the probe document starts with
	// atEnd appends each insert, as a typing session does; otherwise
	// inserts go mid-document. backspace makes every other probe delete
	// the previous insert, as a workload with backspaces does.
	atEnd, backspace bool
	// secUser/secDoc name a restricted reader whose Check and
	// ReadableMask the probe times; secUser "" means the workload runs
	// without access control.
	secUser string
	secDoc  util.ID
	// An open-loop workload's schedule: probes run at grid + offset +
	// k*interval, midway between the workload's own edits, so the direct
	// path is timed under the same conditions as the clients' edits
	// rather than colliding with them. A zero grid runs unaligned.
	grid   time.Time
	offset time.Duration
}

// nextSlot returns the first instant at or after now on the schedule
// grid + off + k*every; with a zero grid, now itself.
func nextSlot(grid time.Time, off, every time.Duration, now time.Time) time.Time {
	if grid.IsZero() {
		return now
	}
	base := grid.Add(off)
	k := (now.Sub(base) + every - 1) / every
	if k < 0 {
		k = 0
	}
	return base.Add(k * every)
}

// createProbeDoc adds the probe document, filled to the workload's
// document size. Every run creates it, traced or not, so set-up does the
// same work in both.
func createProbeDoc(st *stack, spec probeSpec, v *vocab) (util.ID, error) {
	d, err := st.cl.CreateDocument(probeUser, "probe")
	if err != nil {
		return util.NilID, err
	}
	if _, err := d.Apply(probeUser, []core.EditOp{{Kind: core.EditInsert, Text: v.text(spec.fill)}}); err != nil {
		return util.NilID, err
	}
	return d.ID(), nil
}

// prober makes the traced run's direct calls: every tick it applies one
// op of the workload's shape to the probe document through
// Document.ApplyAsync and Engine.WaitDurable, times the in-process bus
// delivery of the resulting event, a full read of the fresh snapshot,
// the v3 codec on the same op's request and push frames, and the
// security checks of the workload's restricted reader. The ops mirror the
// workload's own: deletes only where it deletes.
type prober struct {
	st   *stack
	tr   *tracer
	spec probeSpec
	doc  *core.Document
	v    *vocab
	last []util.ID // instances of the last insert, deleted next
	// inserted counts the runes the probe committed; the benchmark counts
	// them with the workload's own characters.
	inserted int64

	sub      *awareness.Subscription
	got      chan time.Time
	stop     chan struct{}
	loopDone chan struct{}
	recvDone chan struct{}
	err      error
}

func newProber(st *stack, tr *tracer, spec probeSpec, doc util.ID, seed int64) (*prober, error) {
	d, err := st.cl.OpenDocument(doc)
	if err != nil {
		return nil, err
	}
	return &prober{st: st, tr: tr, spec: spec, doc: d,
		v: newVocab(rand.New(rand.NewSource(seed)), 500)}, nil
}

// start runs the probe every interval until stopProbe.
func (p *prober) start(interval time.Duration) {
	p.sub = p.st.cl.BusFor(p.doc.ID()).Subscribe(p.doc.ID(), awareness.SubscribeOpts{QueueLimit: 64})
	// One delivery per probe op; the slack absorbs a late one.
	p.got = make(chan time.Time, 4)
	p.stop = make(chan struct{})
	p.loopDone, p.recvDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.recvDone)
		for {
			ev, ok := p.sub.Next()
			if !ok {
				return
			}
			if ev.User == probeUser {
				select {
				case p.got <- time.Now():
				default:
				}
			}
		}
	}()
	go func() {
		defer close(p.loopDone)
		next := nextSlot(p.spec.grid, p.spec.offset, interval, time.Now())
		for i := int64(1); ; i++ {
			t := time.NewTimer(time.Until(next))
			select {
			case <-p.stop:
				t.Stop()
				return
			case <-t.C:
			}
			if err := p.once(i); err != nil {
				p.err = err
				return
			}
			next = nextSlot(p.spec.grid, p.spec.offset, interval, next.Add(interval/2))
		}
	}()
}

// stopProbe ends the probe loop, then the subscription its deliveries
// come from.
func (p *prober) stopProbe() error {
	close(p.stop)
	<-p.loopDone
	p.sub.Close()
	<-p.recvDone
	return p.err
}

func (p *prober) nextOps() []core.EditOp {
	if p.spec.backspace && len(p.last) > 0 {
		return []core.EditOp{{Kind: core.EditDelete, Chars: p.last}}
	}
	return []core.EditOp{p.insertOp()}
}

func (p *prober) insertOp() core.EditOp {
	pos := p.doc.Len() / 2
	if p.spec.atEnd {
		pos = p.doc.Len()
	}
	return core.EditOp{Kind: core.EditInsert, Pos: pos, Text: p.v.text(p.spec.runes)}
}

func (p *prober) once(i int64) error {
	tr := p.tr
	root := tr.begin("probe", 0, i)
	defer tr.end(root)
	ops := p.nextOps()
	if err := p.codec(root, i, ops); err != nil {
		return err
	}
	for len(p.got) > 0 { // a delivery that missed its probe's deadline
		<-p.got
	}

	start := time.Now()
	sp := tr.begin("core.apply", root, i)
	res, lsn, err := p.doc.ApplyAsync(probeUser, ops)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe apply: %w", err)
	}
	sp = tr.begin("core.durable_wait", root, i)
	err = p.st.cl.EngineFor(p.doc.ID()).WaitDurable(lsn)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe durable wait: %w", err)
	}
	select {
	case at := <-p.got:
		tr.record("awareness.deliver", start, at, root, i)
	case <-time.After(2 * time.Second):
		return errors.New("probe: bus subscriber never received the probe's event")
	}
	if ops[0].Kind == core.EditInsert {
		p.last = res[0].IDs
		p.inserted += int64(len(p.last))
	} else {
		p.last = nil
	}

	// A real snapshot read: walk the snapshot published by this write,
	// not the memoised text of an older one.
	sp = tr.begin("core.read", root, i)
	n := readSnapshot(p.doc.Snapshot().Tree())
	tr.end(sp)
	if n != p.doc.Len() {
		return fmt.Errorf("probe read %d runes of a %d-rune document", n, p.doc.Len())
	}

	if p.spec.secUser != "" {
		sec := p.st.sec
		sp = tr.begin("security.check", root, i)
		err := sec.Check(p.spec.secUser, p.spec.secDoc, core.RRead)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe: %s lost read access: %w", p.spec.secUser, err)
		}
		d, err := p.st.cl.OpenDocument(p.spec.secDoc)
		if err != nil {
			return err
		}
		ids := d.Snapshot().Tree().VisibleIDs()
		sp = tr.begin("security.mask", root, i)
		mask := sec.ReadableMask(p.spec.secUser, p.spec.secDoc, ids)
		tr.end(sp)
		if mask == nil {
			return fmt.Errorf("probe: %s has no read mask on doc %v", p.spec.secUser, p.spec.secDoc)
		}
	}
	return nil
}

func readSnapshot(t *texttree.Snapshot) int {
	var sb strings.Builder
	n := 0
	t.WalkVisible(func(ch *texttree.Char) bool {
		sb.WriteRune(ch.Rune)
		n++
		return true
	})
	return n
}

// codec times the v3 codec on the op's request frame and on the push
// frame its event fans out as, and checks each round trip.
func (p *prober) codec(root int32, i int64, ops []core.EditOp) error {
	op := protocol.EditOp{Kind: ops[0].Kind, Pos: ops[0].Pos, Text: ops[0].Text}
	ev := &protocol.Event{Seq: uint64(i), Doc: uint64(p.doc.ID()), Kind: ops[0].Kind,
		User: probeUser, Pos: ops[0].Pos, Text: ops[0].Text, AtNS: time.Now().UnixNano()}
	for _, id := range ops[0].Chars {
		op.Chars = append(op.Chars, uint64(id))
	}
	ev.N = len(op.Chars)
	msgs := []*protocol.Message{
		{Type: protocol.TypeRequest, ID: i, Op: protocol.OpEdit, Doc: uint64(p.doc.ID()), Ops: []protocol.EditOp{op}},
		{Type: protocol.TypePush, Event: ev},
	}
	for _, m := range msgs {
		sp := p.tr.begin("protocol.encode", root, i)
		frame, err := protocol.EncodeFrame(m, protocol.Version3)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		n, k := binary.Uvarint(frame[1:])
		if k <= 0 || int(n) != len(frame)-1-k {
			return fmt.Errorf("probe: malformed v3 frame header")
		}
		sp = p.tr.begin("protocol.decode", root, i)
		got, err := protocol.DecodeBinaryPayload(frame[1+k:])
		p.tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
		if got.Type != m.Type || got.Op != m.Op || (m.Event != nil && (got.Event == nil || got.Event.Text != m.Event.Text)) ||
			(len(m.Ops) > 0 && (len(got.Ops) != 1 || got.Ops[0].Text != m.Ops[0].Text || len(got.Ops[0].Chars) != len(m.Ops[0].Chars))) {
			return fmt.Errorf("probe: v3 codec round trip changed the frame")
		}
	}
	return nil
}

// allocsPerKey applies n probe inserts on a quiet process and returns
// the heap allocations Document.ApplyAsync made per inserted rune.
func (p *prober) allocsPerKey(n int) (float64, error) {
	var ms runtime.MemStats
	var allocs uint64
	keys := 0
	eng := p.st.cl.EngineFor(p.doc.ID())
	for i := 0; i < n; i++ {
		ops := []core.EditOp{p.insertOp()}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, lsn, err := p.doc.ApplyAsync(probeUser, ops)
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		keys += p.spec.runes
		p.inserted += int64(p.spec.runes)
		if err != nil {
			return 0, err
		}
		if err := eng.WaitDurable(lsn); err != nil {
			return 0, err
		}
	}
	return float64(allocs) / float64(keys), nil
}

// sampler polls the gauges a span cannot show: active transactions, the
// subscribers' queued events and the indexers' refresh backlog.
type sampler struct {
	txnMax, depthMax, lagMax int64
	stop                     chan struct{}
	done                     chan struct{}
}

func startSampler(st *stack, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			s.txnMax = max64(s.txnMax, int64(st.db.TxnManager().ActiveCount()))
			s.depthMax = max64(s.depthMax, st.srv.Metrics().QueueDepth.Load())
			if ic := st.cl.Index(); ic != nil {
				s.lagMax = max64(s.lagMax, int64(ic.Stats().Lag))
			}
		}
	}()
	return s
}

// halt stops the sampler; its maxima are safe to read afterwards.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
