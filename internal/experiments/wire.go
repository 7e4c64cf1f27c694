package experiments

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/protocol"
	"tendax/internal/server"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// E15: protocol v2 — batched, pipelined, ID-anchored editing vs the v1
// one-blocking-RPC-per-keystroke path, plus delta vs full resync, all
// over real TCP and a file-backed WAL. Reported: durable keystrokes/s on
// each path, the speedup, the achieved coalescing, and the wire bytes a
// lagged subscriber pays to catch up by delta vs by full text.
func runE15(r *runner) error {
	chars := 4000
	docChars := 40_000
	gap := 16
	if r.Quick {
		chars = 600
		docChars = 10_000
	}

	eng, closeDB, err := openEngine(db.Options{}, true)
	if err != nil {
		return err
	}
	defer closeDB()
	srv, addr, err := serve(eng)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	// --- v1: one blocking request + one durability wait per keystroke. ---
	c1, d1, err := dialDoc(addr, "v1", "e15-v1")
	if err != nil {
		return err
	}
	defer c1.Close()
	t0 := time.Now()
	for i := 0; i < chars; i++ {
		if err := d1.Append("x"); err != nil {
			return err
		}
	}
	v1Secs := time.Since(t0).Seconds()
	v1Ops := float64(chars) / v1Secs

	// --- v2: coalesced ID-anchored batches, pipelined durable acks. ---
	c2, d2, err := dialDoc(addr, "v2", "e15-v2")
	if err != nil {
		return err
	}
	defer c2.Close()
	sess, err := d2.Session()
	if err != nil {
		return err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	t0 = time.Now()
	for i := 0; i < chars; i++ {
		if err := sess.Type("x"); err != nil {
			return err
		}
	}
	if err := sess.Wait(); err != nil {
		return err
	}
	v2Secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&msAfter)
	// Process-wide (client + in-process server) allocations per durable
	// keystroke over the whole v2 path: batch staging, WAL, awareness push.
	v2Allocs := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(chars)
	v2Ops := float64(chars) / v2Secs
	coalesce := float64(sess.Typed()) / float64(sess.Flushes())
	speedup := v2Ops / v1Ops

	// Verify both documents committed every keystroke.
	id2 := d2.ID()
	for _, id := range []uint64{d1.ID(), id2} {
		doc, err := eng.OpenDocument(util.ID(id))
		if err != nil {
			return err
		}
		if doc.Len() != chars {
			return fmt.Errorf("doc %d has %d chars, want %d", id, doc.Len(), chars)
		}
	}

	// --- Resync: wire bytes to catch a lagged replica up. ---
	srvDoc, err := eng.OpenDocument(util.ID(id2))
	if err != nil {
		return err
	}
	for srvDoc.Len() < docChars {
		if _, err := srvDoc.AppendText("filler", strings.Repeat("x", 500)); err != nil {
			return err
		}
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	cnt := &countingConn{Conn: nc}
	codec := protocol.NewCodec(cnt)
	defer codec.Close()
	reqID := int64(0)
	call := func(m *protocol.Message) (*protocol.Message, error) {
		reqID++
		m.Type = protocol.TypeRequest
		m.ID = reqID
		if err := codec.Send(m); err != nil {
			return nil, err
		}
		for {
			resp, err := codec.Recv()
			if err != nil {
				return nil, err
			}
			if resp.Type == protocol.TypeResponse && resp.ID == reqID {
				if resp.Err != "" {
					return nil, fmt.Errorf("%s: %s", m.Op, resp.Err)
				}
				return resp, nil
			}
		}
	}
	if _, err := call(&protocol.Message{Op: protocol.OpLogin, User: "lagged"}); err != nil {
		return err
	}
	seq := eng.Bus().Seq(util.ID(id2))
	for i := 0; i < gap; i++ {
		if _, err := srvDoc.AppendText("w", "y"); err != nil {
			return err
		}
	}
	before := cnt.read.Load()
	resp, err := call(&protocol.Message{Op: protocol.OpResync, Doc: id2, Since: seq})
	if err != nil {
		return err
	}
	deltaBytes := float64(cnt.read.Load() - before)
	if resp.Full || len(resp.Events) != gap {
		return fmt.Errorf("delta resync fell back (full=%v, events=%d)", resp.Full, len(resp.Events))
	}
	before = cnt.read.Load()
	resp, err = call(&protocol.Message{Op: protocol.OpText, Doc: id2})
	if err != nil {
		return err
	}
	fullBytes := float64(cnt.read.Load() - before)
	if len(resp.Text) < docChars {
		return fmt.Errorf("full resync returned %d chars", len(resp.Text))
	}
	ratio := fullBytes / deltaBytes

	r.printf("%-38s %10d\n", "durable keystrokes per path", chars)
	r.printf("%-38s %10.0f op/s\n", "v1 per-keystroke RPC", v1Ops)
	r.printf("%-38s %10.0f op/s\n", "v2 batched pipelined session", v2Ops)
	r.printf("%-38s %9.1fx\n", "typing speedup", speedup)
	r.printf("%-38s %10.1f\n", "keystrokes per batch (achieved)", coalesce)
	r.printf("%-38s %10d chars\n", "lagged-replica document size", docChars)
	r.printf("%-38s %10d events\n", "resync gap", gap)
	r.printf("%-38s %10.0f bytes\n", "delta resync on the wire", deltaBytes)
	r.printf("%-38s %10.0f bytes\n", "full resync on the wire", fullBytes)
	r.printf("%-38s %9.1fx\n", "full/delta wire ratio", ratio)
	r.printf("%-38s %10.1f allocs\n", "v2 allocs per durable keystroke", v2Allocs)
	r.emit("batch_speedup", speedup, "x", "higher")
	r.emit("v2_durable_ops_per_sec", v2Ops, "op/s", "higher")
	r.emit("keystrokes_per_batch", coalesce, "op/batch", "higher")
	r.emit("resync_full_over_delta", ratio, "x", "higher")
	r.emit("v2_allocs_per_keystroke", v2Allocs, "allocs", "lower")
	if speedup < 5 {
		r.println("WARNING: below the 5x batched-typing acceptance envelope")
	} else {
		r.println("shape check: batching amortises the RTT and the fsync wait across the batch,")
		r.println("             pipelining overlaps them with typing, and a lagged replica pays O(gap)")
		r.println("             wire bytes instead of O(doc).")
	}
	return nil
}

// countingConn counts bytes read from a connection (wire-cost accounting).
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// E16: the protocol-v3 binary codec and the allocation-lean commit path.
// Three measurements anchor the optimisation:
//
//  1. Heap allocations per durable keystroke on the engine's Apply path
//     (pooled batch staging + arena char records + one-splice InsertRun).
//  2. Durable typing throughput of a v3 binary session vs the same v2
//     session over JSON frames, over real TCP and a file-backed WAL.
//  3. Wire bytes per keystroke (both directions: batch, ack, push) under
//     each framing — the frame-size win, measured not computed.
func runE16(r *runner) error {
	chars := 4000
	allocBatches := 200
	if r.Quick {
		chars = 600
		allocBatches = 40
	}
	const batchRunes = 128

	eng, closeDB, err := openEngine(db.Options{}, true)
	if err != nil {
		return err
	}
	defer closeDB()

	// --- Phase 1: allocations per keystroke on the raw Apply path. ---
	doc, err := eng.CreateDocument("bench", "e16-alloc")
	if err != nil {
		return err
	}
	text := strings.Repeat("x", batchRunes)
	ops := []core.EditOp{{Kind: core.EditInsert, Pos: 0, Text: text}}
	// Warm the pools and the document before measuring.
	for i := 0; i < 8; i++ {
		if _, _, err := doc.ApplyAsync("bench", ops); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var lsn wal.LSN
	for i := 0; i < allocBatches; i++ {
		if _, lsn, err = doc.ApplyAsync("bench", ops); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	if err := eng.WaitDurable(lsn); err != nil {
		return err
	}
	applyAllocs := float64(after.Mallocs-before.Mallocs) / float64(allocBatches*batchRunes)

	// --- Phase 2: v2 JSON vs v3 binary typing sessions over TCP. ---
	srv, addr, err := serve(eng)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	type typed struct {
		opsPerSec float64
		bytes     float64 // both directions, typing loop only
	}
	runSession := func(user, docName string, maxVer int) (typed, error) {
		c, d, err := dialDoc(addr, user, docName, client.WithMaxVersion(maxVer))
		if err != nil {
			return typed{}, err
		}
		defer c.Close()
		if ver := c.Ver(); ver != maxVer {
			return typed{}, fmt.Errorf("%s negotiated v%d, want v%d", user, ver, maxVer)
		}
		sess, err := d.Session()
		if err != nil {
			return typed{}, err
		}
		// Sequential phases on an otherwise idle server: the byte-counter
		// delta across the typing loop is this client's traffic alone.
		m := srv.Metrics()
		wireBefore := m.BytesIn.Load() + m.BytesOut.Load()
		t0 := time.Now()
		for i := 0; i < chars; i++ {
			if err := sess.Type("x"); err != nil {
				return typed{}, err
			}
		}
		if err := sess.Wait(); err != nil {
			return typed{}, err
		}
		secs := time.Since(t0).Seconds()
		wire := float64(m.BytesIn.Load() + m.BytesOut.Load() - wireBefore)
		return typed{opsPerSec: float64(chars) / secs, bytes: wire}, nil
	}

	v2, err := runSession("v2", "e16-v2", protocol.Version2)
	if err != nil {
		return err
	}
	v3, err := runSession("v3", "e16-v3", protocol.Version3)
	if err != nil {
		return err
	}
	for _, name := range []string{"e16-v2", "e16-v3"} {
		d, err := eng.FindDocument(name)
		if err != nil {
			return err
		}
		if d.Len() != chars {
			return fmt.Errorf("%s has %d chars, want %d", name, d.Len(), chars)
		}
	}
	speedup := v3.opsPerSec / v2.opsPerSec
	byteRatio := v2.bytes / v3.bytes

	r.printf("%-38s %10.1f allocs\n", "Apply-path allocs per keystroke", applyAllocs)
	r.printf("%-38s %10d per path\n", "durable keystrokes", chars)
	r.printf("%-38s %10.0f op/s\n", "v2 JSON session", v2.opsPerSec)
	r.printf("%-38s %10.0f op/s\n", "v3 binary session", v3.opsPerSec)
	r.printf("%-38s %9.2fx\n", "v3/v2 typing speedup", speedup)
	r.printf("%-38s %10.1f B/keystroke\n", "v2 wire cost", v2.bytes/float64(chars))
	r.printf("%-38s %10.1f B/keystroke\n", "v3 wire cost", v3.bytes/float64(chars))
	r.printf("%-38s %9.2fx\n", "v2/v3 wire bytes ratio", byteRatio)
	r.emit("v3_durable_ops_per_sec", v3.opsPerSec, "op/s", "higher")
	r.emit("v3_speedup_vs_v2", speedup, "x", "higher")
	r.emit("wire_bytes_ratio_v2_over_v3", byteRatio, "x", "higher")
	r.emit("apply_allocs_per_keystroke", applyAllocs, "allocs", "lower")
	if byteRatio < 4 {
		r.println("WARNING: below the 4x wire-shrink acceptance envelope")
	} else {
		r.println("shape check: presence-bitmap binary frames carry the same batches in a fraction")
		r.println("             of the bytes, and the pooled/arena commit path keeps allocations per")
		r.println("             keystroke flat as batches grow.")
	}
	return nil
}

// E17 — Multi-tenant event stream under a connection storm.
//
// Phase A subscribes a large fleet (10k full, 500 quick) to ONE document
// on the awareness bus with bounded queues and the shed-and-resync
// overflow policy, then publishes a typing storm. Slow consumers overflow,
// get a coalesced gap marker instead of a detach, and heal by replaying
// the missed events from the retention ring — the experiment asserts that
// a sample of replicas folding the (healed) stream reconverges
// byte-for-byte with the committed text, and that per-subscriber memory
// stayed bounded by the queue limit throughout.
//
// Phase B exercises the server-side rate limiter over TCP: a client
// flooding past its token-bucket budget must receive the typed
// "throttled" rejection with a positive retry-after hint, counted in the
// server metrics, while the connection itself survives.
func runE17(r *runner) error {
	nSubs := 10000
	storm := 2000
	if r.Quick {
		nSubs = 500
		storm = 600
	}
	const queueLimit = 64
	const sampled = 16 // subscribers that maintain a full replica

	eng, closeDB, err := openEngine(db.Options{}, false)
	if err != nil {
		return err
	}
	defer closeDB()

	doc, err := eng.CreateDocument("storm", "e17")
	if err != nil {
		return err
	}
	bus := eng.Bus()
	var shedCount, depthGauge atomic.Int64
	bus.SetCounters(&shedCount, &depthGauge)

	// The storm's edits, precomputed so the publisher loop is pure
	// commit work: position i inserts one letter at a deterministic spot.
	positions := make([]int, storm)
	letters := make([]string, storm)
	for i := range positions {
		positions[i] = (i * 7919) % (i + 1) // pseudo-scatter, always in range
		letters[i] = string(rune('a' + i%26))
	}

	var (
		wg         sync.WaitGroup
		delivered  atomic.Int64
		healed     atomic.Int64
		converged  atomic.Int64
		notCovered atomic.Int64
		maxDepth   atomic.Int64
	)
	before := bus.Seq(doc.ID())
	target := before + uint64(storm)

	subscriber := func(idx int, sub *awareness.Subscription) {
		defer wg.Done()
		defer sub.Close()
		fold := idx < sampled
		// A quarter of the fleet — including half the sampled replicas —
		// consumes deliberately slowly, so queue overflow and ring healing
		// are exercised at every storm scale, and the byte-for-byte
		// convergence check covers subscribers that actually shed.
		slow := idx%4 == 3 || idx < sampled/2
		var replica []rune
		apply := func(e *awareness.Event) {
			delivered.Add(1)
			if !fold || e.Kind != awareness.EvInsert {
				return
			}
			pos := e.Pos
			if pos > len(replica) {
				pos = len(replica)
			}
			ins := []rune(e.Text)
			replica = append(replica[:pos], append(ins, replica[pos:]...)...)
		}
		last := before
		for last < target {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			if ev.Kind == awareness.EvGap {
				evs, covered := bus.EventsSince(doc.ID(), last)
				if !covered {
					notCovered.Add(1)
					return
				}
				for i := range evs {
					if evs[i].Seq <= last {
						continue
					}
					apply(&evs[i])
					last = evs[i].Seq
				}
				healed.Add(1)
				continue
			}
			if ev.Seq <= last {
				continue
			}
			apply(&ev)
			last = ev.Seq
			if slow {
				// Slower than any realistic publish interval: the queue
				// must overflow, shed, and heal — that path is the point.
				time.Sleep(10 * time.Millisecond)
			}
		}
		if d := int64(sub.MaxDepth()); d > maxDepth.Load() {
			maxDepth.Store(d) // benign race: any observed max is ≤ queueLimit
		}
		if fold && string(replica) == doc.Text() {
			converged.Add(1)
		}
	}

	// Every subscriber is registered BEFORE the first storm event, so a
	// replica that misses anything can only have missed it to a shed —
	// which the heal path must repair.
	subs := make([]*awareness.Subscription, nSubs)
	for i := range subs {
		subs[i] = bus.Subscribe(doc.ID(), awareness.SubscribeOpts{
			QueueLimit:     queueLimit,
			OverflowPolicy: awareness.ShedAndResync,
		})
	}
	wg.Add(nSubs)
	for i := range subs {
		go subscriber(i, subs[i])
	}
	start := time.Now()
	var lsn wal.LSN
	for i := 0; i < storm; i++ {
		if _, lsn, err = doc.InsertTextAsync("storm", positions[i], letters[i]); err != nil {
			return err
		}
	}
	if err := eng.WaitDurable(lsn); err != nil {
		return err
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := notCovered.Load(); n > 0 {
		return fmt.Errorf("e17: %d subscribers outran ring retention (storm %d vs retention %d)",
			n, storm, awareness.DefaultRetention)
	}
	if got := converged.Load(); got != sampled {
		return fmt.Errorf("e17: only %d/%d sampled replicas reconverged after shed+heal", got, sampled)
	}
	if maxDepth.Load() > queueLimit {
		return fmt.Errorf("e17: queue depth %d exceeded limit %d", maxDepth.Load(), queueLimit)
	}
	if shedCount.Load() == 0 || healed.Load() == 0 {
		return fmt.Errorf("e17: storm never exercised shed+heal (sheds %d, heals %d)",
			shedCount.Load(), healed.Load())
	}
	fanout := float64(delivered.Load()) / elapsed.Seconds()

	// --- Phase B: typed throttling over TCP. ---
	srv, addr, err := serve(eng, func(s *server.Server) {
		s.SetRateLimit(25, 0) // 25 edit batches/s per connection, burst 50
	})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	c, fd, err := dialDoc(addr, "flooder", "e17-flood")
	if err != nil {
		return err
	}
	defer c.Close()
	throttles := 0
	var retryHint time.Duration
	for i := 0; i < 200 && throttles == 0; i++ {
		err := fd.Append("z")
		var th *client.ThrottledError
		switch {
		case err == nil:
		case errors.As(err, &th):
			throttles++
			retryHint = th.RetryAfter
		default:
			return err
		}
	}
	if throttles == 0 {
		return fmt.Errorf("e17: 200 instant edits never throttled at 25 edits/s")
	}
	if retryHint <= 0 {
		return fmt.Errorf("e17: throttled without a retry-after hint")
	}
	if srv.Metrics().Throttles.Load() == 0 {
		return fmt.Errorf("e17: throttle rejections not counted in metrics")
	}

	r.printf("  subscribers on one doc          %10d\n", nSubs)
	r.printf("  storm events published          %10d\n", storm)
	r.printf("  fan-out deliveries/sec          %10.0f\n", fanout)
	r.printf("  events shed (queue overflow)    %10d\n", shedCount.Load())
	r.printf("  gaps healed from ring           %10d\n", healed.Load())
	r.printf("  max queue depth (limit %3d)     %10d\n", queueLimit, maxDepth.Load())
	r.printf("  sampled replicas reconverged    %10d/%d\n", converged.Load(), sampled)
	r.printf("  throttle retry-after hint       %10s\n", retryHint)

	r.emit("storm_subscribers", float64(nSubs), "subs", "higher")
	r.emit("storm_fanout_per_sec", fanout, "ev/s", "higher")
	r.emit("storm_max_queue_depth", float64(maxDepth.Load()), "events", "lower")
	r.emit("storm_reconverged", 1.0, "bool", "higher")
	r.emit("throttle_engaged", 1.0, "bool", "higher")
	return nil
}
