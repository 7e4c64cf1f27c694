package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported number and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a run with --trace 0 reports in its result line, on
// every workload; BENCHMARK.json lists the same names (a test keeps the
// two in step). They are the figures that hold steady from run to run on
// a shared 2-core host: set-up time, throughput, processor time per
// operation (an edit keystroke on keystroke, a paragraph on burst, a read
// query on search) and per restarted character, disk and memory per
// character. Every run also prints the latencies and the wall-clock
// restart, which fsync and wake-up jitter spread too far to bound
// (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"keys_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"restart_cpu_us_per_char", "us/char"},
	{"disk_bytes_per_char", "B/char"},
	{"heap_bytes_per_char", "B/char"},
}

// perLayer is what a run with --trace 1 reports. Layers a workload does
// not exercise report 0 (README.md maps layer to workload).
var perLayer = []metricDef{
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"client.keys_per_batch", "keys"},
	{"client.events_recv", "count"},
	{"protocol.wire_bytes_per_key", "B/key"},
	{"protocol.encode_us_p50", "us"},
	{"protocol.decode_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.pushes_per_edit", "count"},
	{"server.queue_depth_max", "count"},
	{"server.sheds", "count"},
	{"server.heals", "count"},
	{"server.throttles", "count"},
	{"security.check_us_p50", "us"},
	{"security.mask_us_p50", "us"},
	{"security.masked_chars_frac", "frac"},
	{"core.apply_us_p50", "us"},
	{"core.apply_us_p99", "us"},
	{"core.durable_wait_us_p50", "us"},
	{"core.durable_wait_us_p99", "us"},
	{"core.allocs_per_key", "allocs/key"},
	{"core.read_us_p50", "us"},
	{"core.load_ms", "ms"},
	{"awareness.deliver_us_p50", "us"},
	{"awareness.deliver_us_p99", "us"},
	{"txn.active_max", "count"},
	{"storage.pool_hit_ratio", "frac"},
	{"storage.page_reads", "count"},
	{"storage.page_writes", "count"},
	{"storage.read_us_p50", "us"},
	{"wal.syncs_per_batch", "syncs/batch"},
	{"wal.sync_ms_p50", "ms"},
	{"wal.sync_ms_p99", "ms"},
	{"wal.append_bytes_per_char", "B/char"},
	{"wal.checkpoints", "count"},
	{"wal.recovery_records", "count"},
	{"index.query_us_p50", "us"},
	{"index.query_us_p99", "us"},
	{"index.applied_ops", "count"},
	{"index.lag_docs_max", "count"},
	{"index.heals", "count"},
	{"index.prime_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// pct returns the nearest-rank percentile p (0 < p <= 1) of s, or 0 for
// an empty set.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// median of a non-empty float slice.
func median(v []float64) float64 { return samples(v).pct(0.5) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects every number a run produced, by name; emit selects the
// set the result line carries.
type report struct {
	vals  map[string]float64
	units map[string]string
	order []string
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = v
	r.units[name] = unit
}

// table prints every collected number, by name and unit.
func (r *report) table(w io.Writer) {
	for _, n := range r.order {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.vals[n], r.units[n])
	}
}

// result builds the result line from the named set; a name the run did
// not produce is an error, so a workload can never silently drop one.
func (r *report) result(defs []metricDef, correct bool, attempted, failed int64) (result, error) {
	out := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func (res result) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return string(b)
}
