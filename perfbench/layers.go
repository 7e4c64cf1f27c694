package main

import (
	"tendax/internal/index"
)

// counters is a snapshot of the program's own counters, read through
// the public accessors of each layer.
type counters struct {
	batches, pushes, wire      int64
	sheds, throttles, heals    int64
	syncs, ckpts, hits, misses uint64
	idx                        index.Stats
	walBytes, chars            int64
}

func snapCounters(st *stack, w workload) counters {
	m := st.srv.Metrics()
	c := counters{
		batches: m.Batches.Load(), pushes: m.Pushes.Load(),
		wire:  m.BytesIn.Load() + m.BytesOut.Load(),
		sheds: m.Sheds.Load(), throttles: m.Throttles.Load(), heals: m.Heals.Load(),
		syncs: st.db.Log().SyncCount(),
		chars: w.chars(),
	}
	c.ckpts, _ = st.db.CheckpointCount()
	c.hits, c.misses = st.db.Pool().Stats()
	if ic := st.cl.Index(); ic != nil {
		c.idx = ic.Stats()
	}
	if st.store != nil {
		c.walBytes = st.store.bytes.Load()
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives the per-layer metrics of a traced run: ph is the traced
// half, base the untraced half before it, c0/c1 the counters around the
// traced half.
func layers(r *report, tr *tracer, ph, base *phase, c0, c1 counters, smp *sampler, allocs float64, recovered int) {
	us := func(name string, p float64) float64 { return tr.durations(name).pct(p) * 1000 }
	keys := float64(ph.keys.Load())
	batches := float64(c1.batches - c0.batches)

	r.set("loadgen.late_ms_p50", "ms", ph.late.pct(0.5))
	r.set("loadgen.late_ms_p99", "ms", ph.late.pct(0.99))

	r.set("client.keys_per_batch", "keys", ratio(keys, float64(ph.batches.Load())))
	r.set("client.events_recv", "count", float64(ph.events.Load()))

	r.set("protocol.wire_bytes_per_key", "B/key", ratio(float64(c1.wire-c0.wire), keys))
	r.set("protocol.encode_us_p50", "us", us("protocol.encode", 0.5))
	r.set("protocol.decode_us_p50", "us", us("protocol.decode", 0.5))

	// Server self time: the client's round trip for an edit minus the
	// direct core path (apply + durable wait) for the same op shape.
	var direct samples
	applies, waits := tr.durations("core.apply"), tr.durations("core.durable_wait")
	for i := range applies {
		if i < len(waits) {
			direct = append(direct, applies[i]+waits[i])
		}
	}
	self := 0.0
	if len(ph.rtt) > 0 {
		self = (ph.rtt.pct(0.5) - direct.pct(0.5)) * 1000
	}
	r.set("server.self_us_p50", "us", self)
	r.set("server.pushes_per_edit", "count", ratio(float64(c1.pushes-c0.pushes), batches))
	r.set("server.queue_depth_max", "count", float64(smp.depthMax))
	r.set("server.sheds", "count", float64(c1.sheds-c0.sheds))
	r.set("server.heals", "count", float64(c1.heals-c0.heals))
	r.set("server.throttles", "count", float64(c1.throttles-c0.throttles))

	r.set("security.check_us_p50", "us", us("security.check", 0.5))
	r.set("security.mask_us_p50", "us", us("security.mask", 0.5))
	r.set("security.masked_chars_frac", "frac", ratio(float64(ph.masked.Load()), float64(ph.pushed.Load())))

	r.set("core.apply_us_p50", "us", us("core.apply", 0.5))
	r.set("core.apply_us_p99", "us", us("core.apply", 0.99))
	r.set("core.durable_wait_us_p50", "us", us("core.durable_wait", 0.5))
	r.set("core.durable_wait_us_p99", "us", us("core.durable_wait", 0.99))
	r.set("core.allocs_per_key", "allocs/key", allocs)
	r.set("core.read_us_p50", "us", us("core.read", 0.5))
	load := 0.0
	for _, d := range tr.durations("core.load") {
		load += d
	}
	r.set("core.load_ms", "ms", load)

	r.set("awareness.deliver_us_p50", "us", us("awareness.deliver", 0.5))
	r.set("awareness.deliver_us_p99", "us", us("awareness.deliver", 0.99))

	r.set("txn.active_max", "count", float64(smp.txnMax))

	r.set("storage.pool_hit_ratio", "frac", ratio(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses)))
	r.set("storage.page_reads", "count", float64(tr.count("storage.read")))
	r.set("storage.page_writes", "count", float64(tr.count("storage.write")))
	r.set("storage.read_us_p50", "us", us("storage.read", 0.5))

	r.set("wal.syncs_per_batch", "syncs/batch", ratio(float64(c1.syncs-c0.syncs), batches))
	r.set("wal.sync_ms_p50", "ms", tr.durations("wal.sync").pct(0.5))
	r.set("wal.sync_ms_p99", "ms", tr.durations("wal.sync").pct(0.99))
	r.set("wal.append_bytes_per_char", "B/char", ratio(float64(c1.walBytes-c0.walBytes), float64(c1.chars-c0.chars)))
	r.set("wal.checkpoints", "count", float64(c1.ckpts-c0.ckpts))
	r.set("wal.recovery_records", "count", float64(recovered))

	r.set("index.query_us_p50", "us", us("index.query", 0.5))
	r.set("index.query_us_p99", "us", us("index.query", 0.99))
	r.set("index.applied_ops", "count", float64(c1.idx.Applied-c0.idx.Applied))
	r.set("index.lag_docs_max", "count", float64(smp.lagMax))
	r.set("index.heals", "count", float64(c1.idx.Heals-c0.idx.Heals))
	prime := tr.durations("index.prime")
	r.set("index.prime_ms", "ms", prime.pct(1))

	// Tracing overhead: the traced half's headline latency against the
	// untraced half's, same run, same stack.
	r.set("trace.overhead_frac", "frac", ratio(ph.op.pct(0.5), base.op.pct(0.5))-1)
}
