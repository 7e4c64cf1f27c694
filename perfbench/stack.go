package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/placement"
	"tendax/internal/security"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// The flags cmd/tendaxd runs with by default: one shard, a file-backed
// data directory, fuzzy checkpoints every 30 s or 64 MiB of WAL,
// compactors every 5 min, indexers on.
var daemonDB = db.Options{
	CheckpointInterval: 30 * time.Second,
	CheckpointLogBytes: 64 << 20,
}

const (
	compactEvery     = 5 * time.Minute
	compactRetention = time.Hour
)

// stack is the daemon cmd/tendaxd builds, hosted in this process and
// listening on loopback TCP.
type stack struct {
	dir  string
	cl   *placement.Cluster
	db   *db.Database
	sec  *security.Store // nil without authentication
	srv  *server.Server
	addr string
	done chan error // Serve's result

	store *timedStore // traced stacks only

	// Restart phases of the open: recovery, loading every document,
	// priming the indexers.
	recoverDur, loadDur, primeDur time.Duration
	quiet                         bool
}

// openStack opens (or recovers) the daemon on dir. With a tracer it
// builds the database through db.OpenWith plus StartGroupCommit — the
// configuration db.Open produces — so timing wrappers sit under the
// buffer pool and the log; without one it goes through placement.Open
// exactly as the daemon does. Every document is loaded before the
// indexers prime, so a reopened stack serves from memory.
func openStack(dir string, auth bool, tr *tracer) (*stack, error) {
	st := &stack{dir: dir}
	parent := tr.begin("restart", 0, 0)
	defer tr.end(parent)

	t := time.Now()
	sp := tr.begin("restart.recover", parent, 0)
	tr.setAmbient(sp)
	err := st.openCluster(tr)
	tr.setAmbient(0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.recoverDur = time.Since(t)

	t = time.Now()
	sp = tr.begin("restart.load", parent, 0)
	tr.setAmbient(sp)
	err = st.loadAll(tr, sp)
	tr.setAmbient(0)
	tr.end(sp)
	if err != nil {
		st.closeDB()
		return nil, err
	}
	st.loadDur = time.Since(t)

	st.cl.StartCompactors(compactEvery, compactRetention)
	if auth {
		if st.sec, err = security.NewStore(st.cl.Meta()); err != nil {
			st.closeDB()
			return nil, fmt.Errorf("security: %w", err)
		}
		st.sec.SetRouter(st.cl)
		st.cl.SetAccessChecker(st.sec)
	}

	t = time.Now()
	sp = tr.begin("index.prime", parent, 0)
	err = st.cl.StartIndexers()
	tr.end(sp)
	if err != nil {
		st.closeDB()
		return nil, fmt.Errorf("indexers: %w", err)
	}
	st.primeDur = time.Since(t)

	st.srv = server.NewCluster(st.cl, st.sec)
	st.srv.SetLogf(log.New(io.Discard, "", 0).Printf)
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		st.closeDB()
		return nil, err
	}
	st.addr = addr.String()
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve() }()
	return st, nil
}

func (st *stack) openCluster(tr *tracer) error {
	if tr == nil {
		cl, err := placement.Open(placement.Options{Shards: 1, Dir: st.dir, DB: daemonDB})
		if err != nil {
			return err
		}
		st.cl, st.db = cl, cl.Shard(0).DB
		return nil
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	disk, err := storage.OpenFileDisk(filepath.Join(st.dir, "pages.db"))
	if err != nil {
		return err
	}
	fs, err := wal.OpenFileStore(filepath.Join(st.dir, "wal.log"))
	if err != nil {
		disk.Close()
		return err
	}
	st.store = &timedStore{Store: fs, tr: tr}
	database, err := db.OpenWith(&timedDisk{DiskManager: disk, tr: tr}, st.store, daemonDB)
	if err != nil {
		return err
	}
	database.Log().StartGroupCommit(db.DefaultGroupCommitDelay)
	eng, err := core.NewEngineShard(database, nil, 0, 1)
	if err != nil {
		database.Close()
		return err
	}
	st.cl, st.db = placement.Wrap(eng), database
	return nil
}

// loadAll opens every document cold.
func (st *stack) loadAll(tr *tracer, parent int32) error {
	infos, err := st.cl.ListDocuments()
	if err != nil {
		return err
	}
	for _, in := range infos {
		sp := tr.begin("core.load", parent, int64(in.ID))
		_, err := st.cl.OpenDocument(in.ID)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("load doc %v: %w", in.ID, err)
		}
	}
	return nil
}

// restartDur is recovery plus document load plus index priming.
func (st *stack) restartDur() time.Duration { return st.recoverDur + st.loadDur + st.primeDur }

// quiesce stops the listener, every connection and the compactors; the
// checkpointer and indexers keep running, as in a live daemon with no
// clients.
func (st *stack) quiesce() error {
	if st.quiet {
		return nil
	}
	st.quiet = true
	err := st.srv.Close()
	if serr := <-st.done; err == nil {
		err = serr
	}
	if cerr := st.cl.StopCompactors(); err == nil {
		err = cerr
	}
	return err
}

// close shuts the daemon down cleanly.
func (st *stack) close() error {
	err := st.quiesce()
	if cerr := st.closeDB(); err == nil {
		err = cerr
	}
	return err
}

func (st *stack) closeDB() error {
	err := st.cl.Close()
	if st.store != nil { // placement.Wrap leaves the database to its owner
		if cerr := st.db.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// texts reads every document's full committed text.
func (st *stack) texts() (map[util.ID]string, error) {
	infos, err := st.cl.ListDocuments()
	if err != nil {
		return nil, err
	}
	out := make(map[util.ID]string, len(infos))
	for _, in := range infos {
		d, err := st.cl.OpenDocument(in.ID)
		if err != nil {
			return nil, err
		}
		out[in.ID] = d.Snapshot().Text()
	}
	return out, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// crashImage copies the durable files of a quiesced stack to dst, as a
// killed process would leave them: no clean-shutdown checkpoint, dirty
// buffer-pool pages unwritten. The page file is copied before the log,
// so every page image copied is covered by log records copied after it,
// and the copy is retried if a background checkpoint (which writes pages
// and truncates the log) overlapped it.
func (st *stack) crashImage(dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for attempt := 0; attempt < 10; attempt++ {
		before, _ := st.db.CheckpointCount()
		for _, f := range []string{"pages.db", "wal.log"} {
			if err := copyFile(filepath.Join(st.dir, f), filepath.Join(dst, f)); err != nil {
				return err
			}
		}
		if after, _ := st.db.CheckpointCount(); after == before {
			return nil
		}
	}
	return fmt.Errorf("crash image of %s: checkpoints kept overlapping the copy", st.dir)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
