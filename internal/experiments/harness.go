// Package experiments holds the TeNDaX reproduction experiments E1–E19
// (see DESIGN.md and EXPERIMENTS.md): each experiment's fixture and
// measured loop, written once. cmd/tendax-bench runs them and prints their
// tables; the root BenchmarkExperiments runs each in quick mode per
// iteration and reports the same metrics through testing.B.
package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// Metric is one machine-readable result. Only key scalars are metrics —
// the printed tables remain the human-readable record.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better orients the regression gate: "higher" or "lower".
	Better string `json:"better"`
}

// Report is one experiment's metrics: an entry of the BENCH_E*.json files
// that cmd/tendax-trend gates against bench/baseline.json.
type Report struct {
	Experiment string            `json:"experiment"`
	Metrics    map[string]Metric `json:"metrics"`
}

// Config parameterises one run of an experiment.
type Config struct {
	Quick bool      // smaller parameters for a fast smoke run
	Out   string    // E6 writes the Figure 1 lineage DOT here; "" skips it
	W     io.Writer // receives the tables; nil discards them
}

// Experiment is one reproduction experiment.
type Experiment struct {
	ID   string // "e1" … "e19"
	Name string
	fn   func(*runner) error
}

// All lists every experiment in run order.
var All = []Experiment{
	{"e1", "Collaborative editing over TCP (LAN party, §3)", runE1},
	{"e2", "Real-time edit transaction latency (§2)", runE2},
	{"e3", "Local and global undo/redo (§3)", runE3},
	{"e4", "Business process definition and flow (§3)", runE4},
	{"e5", "Dynamic folders (§3)", runE5},
	{"e6", "Data lineage — Figure 1", runE6},
	{"e7", "Visual mining — Figure 2", runE7},
	{"e8", "Search with ranking options (§3)", runE8},
	{"e9", "Crash recovery and durability (§2)", runE9},
	{"e10", "Provenance-capture overhead ablation", runE10},
	{"e11", "Group-commit durability pipeline", runE11},
	{"e12", "Fuzzy checkpoints and bounded recovery", runE12},
	{"e13", "Snapshot reads: MVCC mixed read/write workload", runE13},
	{"e14", "Tombstone compaction and cold archive", runE14},
	{"e15", "Protocol v2: batched pipelined editing and delta resync", runE15},
	{"e16", "Binary wire codec (v3) and the allocation-lean commit path", runE16},
	{"e17", "Multi-tenant event stream: shed-and-resync storm and typed throttling", runE17},
	{"e18", "Per-process engine sharding: cross-shard typing storm", runE18},
	{"e19", "Incremental index maintenance vs. rescan; query p50 under write load", runE19},
}

// Run executes the experiment, printing its tables to cfg.W, and returns
// the metrics it measured (those gathered before a failure, on error).
func (e Experiment) Run(cfg Config) (Report, error) {
	if cfg.W == nil {
		cfg.W = io.Discard
	}
	r := &runner{Config: cfg, metrics: make(map[string]Metric)}
	err := e.fn(r)
	return Report{Experiment: e.ID, Metrics: r.metrics}, err
}

// runner is one experiment invocation: its configuration, table output
// and collected metrics.
type runner struct {
	Config
	metrics map[string]Metric
}

func (r *runner) printf(format string, a ...interface{}) { fmt.Fprintf(r.W, format, a...) }
func (r *runner) println(a ...interface{})               { fmt.Fprintln(r.W, a...) }

// emit records one metric of the run.
func (r *runner) emit(name string, value float64, unit, better string) {
	r.metrics[name] = Metric{Value: value, Unit: unit, Better: better}
}

// openEngine opens an engine over a fresh database: in memory, or with
// onDisk in a new temp directory where every commit pays a real fsync.
// The returned closeFn closes the database and removes the directory.
func openEngine(opts db.Options, onDisk bool) (eng *core.Engine, closeFn func() error, err error) {
	if onDisk {
		if opts.Dir, err = os.MkdirTemp("", "tendax-bench-"); err != nil {
			return nil, nil, err
		}
	}
	database, err := db.Open(opts)
	if err == nil {
		if eng, err = core.NewEngine(database, nil); err != nil {
			_ = database.Close()
		}
	}
	if err != nil {
		_ = os.RemoveAll(opts.Dir)
		return nil, nil, err
	}
	return eng, func() error {
		err := database.Close()
		_ = os.RemoveAll(opts.Dir)
		return err
	}, nil
}

// crashableDoc opens an engine over in-memory pages and log, which the
// caller copies later as a crash image, and creates one document in it.
func crashableDoc(user, name string) (*core.Document, *db.Database, *storage.MemDisk, *wal.MemStore, error) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	doc, err := eng.CreateDocument(user, name)
	return doc, database, disk, store, err
}

// reopenCrash recovers a crash image — the page store disk plus a log
// holding logBytes minus its last tear bytes — and returns document docID
// from it, the recovered database and how long db.OpenWith took.
func reopenCrash(disk storage.DiskManager, logBytes []byte, tear int, docID util.ID) (*core.Document, *db.Database, time.Duration, error) {
	store := wal.NewMemStore()
	if err := store.Append(logBytes); err != nil {
		return nil, nil, 0, err
	}
	store.Truncate(store.Len() - tear)
	t0 := time.Now()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	dt := time.Since(t0)
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	doc, err := eng.OpenDocument(docID)
	return doc, database, dt, err
}

// grow appends random letters to doc, at most 500 per edit, until it holds
// n characters.
func grow(doc *core.Document, user string, rng *util.Rand, n int) error {
	for doc.Len() < n {
		chunk := n - doc.Len()
		if chunk > 500 {
			chunk = 500
		}
		if _, err := doc.AppendText(user, rng.Letters(chunk)); err != nil {
			return err
		}
	}
	return nil
}

// serve starts a quiet TCP server for eng on a loopback port; setup, if
// given, configures it before it accepts connections.
func serve(eng *core.Engine, setup ...func(*server.Server)) (*server.Server, string, error) {
	srv := server.New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	for _, f := range setup {
		f(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve() }()
	return srv, addr.String(), nil
}

// dialDoc logs user in to the server at addr, creates document name and
// opens it; opts (protocol version pins) go to client.Dial.
func dialDoc(addr, user, name string, opts ...client.Option) (*client.Client, *client.Doc, error) {
	c, err := client.Dial(addr, append(opts, client.WithUser(user))...)
	if err != nil {
		return nil, nil, err
	}
	var d *client.Doc
	id, err := c.CreateDocument(name)
	if err == nil {
		d, err = c.Open(id)
	}
	if err != nil {
		_ = c.Close()
		return nil, nil, err
	}
	return c, d, nil
}

// us and ms convert a duration to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
