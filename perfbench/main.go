// Command perfbench is the repository's end-to-end benchmark. It hosts
// the stack cmd/tendaxd builds with its default flags in this process,
// drives it over loopback TCP with at most two client connections per
// workload, checks every output, and prints every metric by name and
// unit; the last line of standard output is the JSON result.
//
//	perfbench --workload keystroke|burst|search --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the timed phase runs its first half untraced and its second
// half traced (spans around the benchmark's own calls into each layer,
// plus probes of the same op shape), and the result carries the
// per-layer metrics, including the tracing overhead. README.md documents
// the workloads, the metrics and what each layer number is taken from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"math/rand"

	"tendax/internal/util"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// A run sets its workload up from scratch at least minSetups times, and
// until the set-ups add up to setupBudget (at most maxSetups); setup_s is
// the median, and the last set-up is measured. A set-up that takes
// milliseconds is mostly fsync latency, so it takes many to steady the
// median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// warmUp is how long the workload runs untimed before the timed phase,
// so the first timed ops do not pay for cold caches or the collection of
// the set-up's garbage.
const warmUp = time.Second

// workload is one traffic mix.
type workload interface {
	// auth reports whether the daemon runs with authentication.
	auth() bool
	// setup generates the inputs on a fresh stack and connects the
	// workload's clients; it returns the stack to measure, which is st
	// unless the workload restarted the daemon.
	setup(st *stack) (*stack, error)
	// probe is the op shape of the traced run's direct calls.
	probe() probeSpec
	// run drives the timed phase for d, recording into ph; it may be
	// called more than once and continues where it stopped.
	run(d time.Duration, ph *phase) error
	// settle waits for the clients' replicas to converge and returns
	// every correctness problem seen in them or in the server's state.
	settle(st *stack) []string
	// closeClients hangs up every connection.
	closeClients()
	// chars is the number of user characters committed so far.
	chars() int64
	// headline adds the workload's own end-to-end numbers.
	headline(r *report, ph *phase)
}

func newWorkload(name string, seed int64, tr *tracer) (workload, error) {
	switch name {
	case "keystroke":
		return newKeystroke(seed), nil
	case "burst":
		return newBurst(seed), nil
	case "search":
		return newSearch(seed, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want keystroke, burst or search)", name)
}

// phase collects one timed phase's samples and counts.
type phase struct {
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration // processor time the process used during the phase

	mu      sync.Mutex
	ack     samples // edit due -> durable ack at its author
	visible samples // edit due -> applied on the other side
	op      samples // the workload's headline operation
	late    samples // open-loop generator lateness
	fresh   samples // search: edit ack -> token found by Search
	rtt     samples // client edit round trips (sent -> ack)

	attempted, failed atomic.Int64
	keys, ops         atomic.Int64 // durably acked keystrokes, completed headline ops
	batches           atomic.Int64 // edit batches the clients sent
	events            atomic.Int64 // events applied by the clients' replicas
	pushed, masked    atomic.Int64 // runes pushed to restricted peers, and masked among them
}

func (p *phase) add(s *samples, d time.Duration) {
	p.mu.Lock()
	s.add(d)
	p.mu.Unlock()
}

// count adds acknowledged keys and completed headline ops.
func (p *phase) count(keys, ops int64) {
	p.keys.Add(keys)
	p.ops.Add(ops)
}

// fail counts a failed op. It misses every latency limit, so each of
// the latency sets it belonged to records it as the whole phase.
func (p *phase) fail(sets ...*samples) {
	p.failed.Add(1)
	p.mu.Lock()
	for _, s := range sets {
		s.add(time.Since(p.start))
	}
	p.mu.Unlock()
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch root inside the checkout
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "keystroke, burst or search")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for data and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.line())
}

// run executes one benchmark run, prints the metric table to out and
// returns the result line.
func run(cfg config, out io.Writer) (result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	var (
		w       workload
		st      *stack
		probeID util.ID
		setups  []float64
		err     error
	)
	var spent time.Duration
	for i := 0; ; i++ {
		t := time.Now()
		if i == 0 {
			t = processStart
		}
		if w, err = newWorkload(cfg.workload, cfg.seed, tr); err != nil {
			return result{}, err
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if st, err = openStack(dir, w.auth(), tr); err != nil {
			return result{}, fmt.Errorf("open stack: %w", err)
		}
		if st, err = w.setup(st); err != nil {
			if st != nil {
				st.close()
			}
			return result{}, fmt.Errorf("setup: %w", err)
		}
		pid, err := createProbeDoc(st, w.probe(), newVocab(rand.New(rand.NewSource(cfg.seed)), 500))
		if err != nil {
			st.close()
			return result{}, fmt.Errorf("probe document: %w", err)
		}
		probeID = pid
		took := time.Since(t)
		setups = append(setups, took.Seconds())
		spent += took
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		w.closeClients()
		if err := st.close(); err != nil {
			return result{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}
	rep := newReport()
	rep.set("setup_s", "s", median(setups))

	if err := timed(w, &phase{}, warmUp); err != nil {
		w.closeClients()
		st.close()
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	// The timed phase.
	ph := &phase{}
	var (
		base   *phase
		pr     *prober
		smp    *sampler
		c0, c1 counters
	)
	if !cfg.trace {
		err = timed(w, ph, time.Duration(cfg.seconds)*time.Second)
	} else {
		half := time.Duration(cfg.seconds) * time.Second / 2
		base = &phase{}
		if err = timed(w, base, half); err == nil {
			if pr, err = newProber(st, tr, w.probe(), probeID, cfg.seed); err != nil {
				w.closeClients()
				st.close()
				return result{}, err
			}
			c0 = snapCounters(st, w)
			tr.on.Store(true)
			pr.start(50 * time.Millisecond)
			smp = startSampler(st, 5*time.Millisecond)
			err = timed(w, ph, half)
			smp.halt()
			perr := pr.stopProbe()
			c1 = snapCounters(st, w)
			if err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		w.closeClients()
		st.close()
		return result{}, fmt.Errorf("timed phase: %w", err)
	}
	// Committed user characters: the workload's and the probe document's.
	chars := func() int64 {
		n := w.chars() + int64(w.probe().fill)
		if pr != nil {
			n += pr.inserted
		}
		return n
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20))
	rep.set("heap_bytes_per_char", "B/char", float64(ms.HeapAlloc)/float64(chars()))

	problems := w.settle(st)
	w.closeClients()
	if err := st.quiesce(); err != nil {
		st.closeDB()
		return result{}, err
	}
	pre, err := st.texts()
	if err != nil {
		st.closeDB()
		return result{}, err
	}
	crash := filepath.Join(root, "crash")
	if err := st.crashImage(crash); err != nil {
		st.closeDB()
		return result{}, err
	}
	// Disk use is taken after a checkpoint, so it does not depend on how
	// far the log had grown since the background checkpointer last ran.
	if err := st.cl.Checkpoint(); err != nil {
		st.closeDB()
		return result{}, err
	}
	nchars := chars()
	if err := diskMetrics(rep, st.dir, nchars); err != nil {
		st.closeDB()
		return result{}, err
	}
	var allocs float64
	if cfg.trace {
		if allocs, err = pr.allocsPerKey(64); err != nil {
			st.closeDB()
			return result{}, fmt.Errorf("allocation probe: %w", err)
		}
	}
	if err := st.closeDB(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	w.headline(rep, ph)
	auth := w.auth()
	// Let the measured stack and the clients' replicas go before the
	// restart builds everything again.
	w, st, pr = nil, nil, nil
	runtime.GC()

	restart, recovered, rproblems, err := restartFromCrash(crash, auth, tr, pre)
	if err != nil {
		return result{}, err
	}
	problems = append(problems, rproblems...)
	rep.set("restart_s", "s", restart.wall.Seconds())
	rep.set("restart_cpu_us_per_char", "us/char", float64(restart.cpu.Microseconds())/float64(nchars))

	// End-to-end numbers of the measured phase.
	series(rep, "edit_ack_ms", ph.ack)
	series(rep, "edit_visible_ms", ph.visible)
	series(rep, "op_ms", ph.op)
	rep.set("keys_per_s", "1/s", float64(ph.keys.Load())/ph.elapsed.Seconds())
	rep.set("ops_per_s", "1/s", float64(ph.ops.Load())/ph.elapsed.Seconds())
	rep.set("cpu_us_per_op", "us", float64(ph.cpu.Microseconds())/float64(max64(ph.ops.Load(), 1)))
	rep.set("cpu_cores_busy", "cores", ph.cpu.Seconds()/ph.elapsed.Seconds())
	attempted, failed := ph.attempted.Load(), ph.failed.Load()
	if base != nil {
		attempted += base.attempted.Load()
		failed += base.failed.Load()
	}
	rep.set("failed_ops_frac", "frac", float64(failed)/float64(max64(attempted, 1)))

	defs := endToEnd
	if cfg.trace {
		layers(rep, tr, ph, base, c0, c1, smp, allocs, recovered)
		if n := rep.vals["server.throttles"]; n != 0 {
			problems = append(problems, fmt.Sprintf("the server throttled %v requests with rate limiting off", n))
		}
		defs = perLayer
		if err := os.MkdirAll(filepath.Join(cfg.work, "spans"), 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans: %s\nself time by span (ms):\n", path)
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-24s %10.3f  (%d spans)\n", name, self[name], tr.count(name))
		}
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep.table(out)
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	return rep.result(defs, len(problems) == 0, attempted, failed)
}

// series reports a latency set: its median, p90 and p99, and its sample
// count (a p99 is supported by at least 1000 samples).
func series(r *report, name string, s samples) {
	r.set(name+"_p50", "ms", s.pct(0.5))
	r.set(name+"_p90", "ms", s.pct(0.9))
	r.set(name+"_p99", "ms", s.pct(0.99))
	r.set(name+"_samples", "count", float64(len(s)))
}

// diskMetrics reports the data directory's size against the user
// characters committed into it.
func diskMetrics(r *report, dir string, chars int64) error {
	pages, err := fileSize(filepath.Join(dir, "pages.db"))
	if err != nil {
		return err
	}
	log, err := fileSize(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	r.set("disk_bytes_per_char", "B/char", float64(pages+log)/float64(chars))
	r.set("page_file_mb", "MB", float64(pages)/(1<<20))
	r.set("user_chars", "count", float64(chars))
	return nil
}

// timed runs one timed phase of length d. It first collects the garbage
// left by whatever ran before, so every phase starts from the same
// collector state rather than from wherever set-up left its pacing.
func timed(w workload, ph *phase, d time.Duration) error {
	runtime.GC()
	cpu0 := cpuTime()
	ph.start = time.Now()
	err := w.run(d, ph)
	ph.elapsed = time.Since(ph.start)
	ph.cpu = cpuTime() - cpu0
	return err
}

// cpuTime is the processor time, user and system, this process has used:
// the daemon and its clients together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A run restarts from its crash image at least minRestarts times, and
// until the restarts add up to restartBudget (at most maxRestarts); the
// restart figures are the median. A small data directory restarts in
// milliseconds, so it takes many restarts to outweigh the disk's jitter.
const (
	minRestarts   = 3
	maxRestarts   = 15
	restartBudget = time.Second
)

// restartTimes are the median wall-clock and processor time of a restart.
type restartTimes struct{ wall, cpu time.Duration }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// restartFromCrash reopens fresh copies of the crash image — recovery,
// document load, index priming — and returns the median restart times,
// the log records the first recovery analysed, and the durability
// problems the first restart shows. A failed recovery is a failed
// durability check, not a failed run. Only the first restart is traced.
func restartFromCrash(crash string, auth bool, tr *tracer, pre map[util.ID]string) (restartTimes, int, []string, error) {
	var durs, cpus []float64
	var problems []string
	recovered := 0
	traced := tr.active()
	defer func() {
		if traced {
			tr.on.Store(true)
		}
	}()
	var total time.Duration
	for i := 0; i < maxRestarts && (i < minRestarts || total < restartBudget); i++ {
		if i > 0 && traced {
			tr.on.Store(false)
		}
		dir := fmt.Sprintf("%s-%d", crash, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return restartTimes{}, 0, nil, err
		}
		for _, f := range []string{"pages.db", "wal.log"} {
			if err := copyFile(filepath.Join(crash, f), filepath.Join(dir, f)); err != nil {
				return restartTimes{}, 0, nil, err
			}
		}
		runtime.GC()
		t, cpu0 := time.Now(), cpuTime()
		st, err := openStack(dir, auth, tr)
		if err != nil {
			problems = append(problems, fmt.Sprintf("restart from the crash image failed: %v", err))
			durs = append(durs, time.Since(t).Seconds())
			cpus = append(cpus, (cpuTime() - cpu0).Seconds())
			break
		}
		durs = append(durs, st.restartDur().Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		total += st.restartDur()
		if i == 0 {
			post, err := st.texts()
			if err != nil {
				st.close()
				return restartTimes{}, 0, nil, err
			}
			problems = append(problems, checkDurable(pre, post)...)
			recovered = st.db.Recovery.Analyzed
		}
		if err := st.close(); err != nil {
			return restartTimes{}, 0, nil, fmt.Errorf("close restarted stack: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return restartTimes{}, 0, nil, err
		}
	}
	return restartTimes{wall: secs(median(durs)), cpu: secs(median(cpus))}, recovered, problems, nil
}

// checkDurable compares every document's text after the restart with
// its text before the crash, when every edit had been acknowledged.
func checkDurable(pre, post map[util.ID]string) []string {
	var out []string
	for id, want := range pre {
		got, ok := post[id]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("doc %v lost in the restart", id))
		case got != want:
			out = append(out, fmt.Sprintf("doc %v after the restart differs from its acknowledged text (%d vs %d runes)",
				id, len([]rune(got)), len([]rune(want))))
		}
	}
	if len(post) != len(pre) {
		out = append(out, fmt.Sprintf("restart holds %d documents, want %d", len(post), len(pre)))
	}
	return out
}
