package db

import (
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/wal"
)

// DefaultGroupCommitDelay is the max coalescing wait a file-backed store's
// WAL flusher may add per batch when Options.GroupCommitDelay is unset. The
// window is self-clocked — the flusher stops waiting as soon as the batch
// matches the previous one, and a single writer never waits at all — so
// this bounds the worst case rather than being paid every batch.
const DefaultGroupCommitDelay = time.Millisecond

// Options configures a Database.
type Options struct {
	// Dir holds the page file and write-ahead log. Empty means a fully
	// in-memory database (tests, examples, benchmarks).
	Dir string
	// PoolPages is the buffer pool capacity in pages (default 1024).
	PoolPages int
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// DisableGroupCommit forces every commit to pay its own fsync (the
	// pre-group-commit behavior). Group commit is on by default for
	// file-backed stores; in-memory stores (Dir == "") never start the
	// flusher — syncs there are free, and tests rely on the synchronous
	// zero-delay path.
	DisableGroupCommit bool
	// GroupCommitDelay is the max extra time the WAL flusher waits per
	// batch to let more commits join. Zero means DefaultGroupCommitDelay;
	// negative means no timed wait (flush as soon as the previous sync
	// returns).
	GroupCommitDelay time.Duration
	// CheckpointInterval, when positive, runs a background fuzzy
	// checkpoint (FuzzyCheckpoint: non-quiescent, truncates the log) at
	// least this often. Zero leaves the background checkpointer off —
	// the default, so tests opt in explicitly.
	CheckpointInterval time.Duration
	// CheckpointLogBytes, when positive, triggers a background fuzzy
	// checkpoint whenever the write-ahead log grows past this many bytes,
	// bounding both disk usage and recovery time regardless of edit rate.
	// May be combined with CheckpointInterval.
	CheckpointLogBytes int64
}

const catalogTableID = 1

var catalogSchema = Schema{
	{Name: "id", Type: TInt},
	{Name: "name", Type: TString},
	{Name: "schema", Type: TBytes},
	{Name: "indexes", Type: TString}, // comma-separated indexed columns
}

// Database is the TeNDaX embedded database: a transactional, recoverable,
// multi-user store of typed tables.
type Database struct {
	disk storage.DiskManager
	pool *storage.BufferPool
	log  *wal.Log
	tm   *txn.Manager

	mu      sync.Mutex
	tables  map[string]*Table
	byID    map[uint64]*Table
	catalog *Table
	nextTID uint64

	// ckptMu serialises fuzzy checkpoints (background, explicit and the one
	// Close takes). Writers are never behind it.
	ckptMu   sync.Mutex
	ckpts    uint64
	ckptErr  error // last background checkpoint failure, for diagnostics
	ckptStop chan struct{}
	ckptDone chan struct{}

	// Recovery outcome of the last Open, for diagnostics and tests.
	Recovery *wal.RecoveryStats
}

// Open opens (creating if empty) a database.
func Open(opts Options) (*Database, error) {
	var (
		disk  storage.DiskManager
		store wal.Store
		err   error
	)
	if opts.Dir == "" {
		disk = storage.NewMemDisk()
		store = wal.NewMemStore()
	} else {
		disk, err = storage.OpenFileDisk(filepath.Join(opts.Dir, "pages.db"))
		if err != nil {
			return nil, err
		}
		store, err = wal.OpenFileStore(filepath.Join(opts.Dir, "wal.log"))
		if err != nil {
			_ = disk.Close()
			return nil, err
		}
	}
	d, err := openWith(disk, store, opts)
	if err != nil {
		return nil, err
	}
	// Group commit pays off exactly where fsync costs something: start the
	// background flusher for file-backed stores only, after recovery (which
	// flushes synchronously) has completed.
	if opts.Dir != "" && !opts.DisableGroupCommit {
		delay := opts.GroupCommitDelay
		if delay == 0 {
			delay = DefaultGroupCommitDelay
		}
		if delay < 0 {
			delay = 0
		}
		d.log.StartGroupCommit(delay)
	}
	return d, nil
}

// OpenWith opens a database over explicit storage, letting tests inject
// crash-simulation stores.
func OpenWith(disk storage.DiskManager, store wal.Store, opts Options) (*Database, error) {
	return openWith(disk, store, opts)
}

func openWith(disk storage.DiskManager, store wal.Store, opts Options) (*Database, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 1024
	}
	pool := storage.NewBufferPool(disk, opts.PoolPages)
	log, err := wal.Open(store)
	if err != nil {
		return nil, err
	}
	// WAL-before-data: no dirty page may be flushed or evicted before the
	// log records that produced its state are durable. With group commit,
	// committed-but-unflushed log tails are routine, so the pool must hold
	// page write-back at the log's durable horizon.
	pool.SetWALBarrier(func(pageLSN uint64) error {
		return log.WaitFlushed(wal.LSN(pageLSN))
	})
	stats, err := wal.Recover(log, pool)
	if err != nil {
		return nil, fmt.Errorf("db: recovery: %w", err)
	}
	tm := txn.NewManager(log, txn.NewLockManager(opts.LockTimeout))
	tm.SeedIDs(stats.MaxTxnID)

	d := &Database{
		disk:     disk,
		pool:     pool,
		log:      log,
		tm:       tm,
		tables:   make(map[string]*Table),
		byID:     make(map[uint64]*Table),
		nextTID:  catalogTableID,
		Recovery: stats,
	}

	heaps, err := d.discoverHeaps()
	if err != nil {
		return nil, err
	}
	catHeap := heaps[catalogTableID]
	if catHeap == nil {
		catHeap = NewHeap(catalogTableID, pool, log)
	}
	d.catalog, err = NewTable(catalogTableID, "__catalog__", catalogSchema, catHeap)
	if err != nil {
		return nil, err
	}
	if err := d.catalog.RebuildIndexes(); err != nil {
		return nil, err
	}

	// Materialise every table in the catalog.
	var loadErr error
	err = d.catalog.Scan(nil, func(_ RID, row Row) (bool, error) {
		id := uint64(row[0].(int64))
		name := row[1].(string)
		schema, err := DecodeSchema(row[2].([]byte))
		if err != nil {
			loadErr = fmt.Errorf("db: catalog entry %q: %w", name, err)
			return false, nil
		}
		heap := heaps[id]
		if heap == nil {
			heap = NewHeap(id, pool, log)
		}
		tbl, err := NewTable(id, name, schema, heap)
		if err != nil {
			loadErr = err
			return false, nil
		}
		if cols := row[3].(string); cols != "" {
			for _, c := range strings.Split(cols, ",") {
				if err := tbl.AddIndex(c); err != nil {
					loadErr = err
					return false, nil
				}
			}
		}
		if err := tbl.RebuildIndexes(); err != nil {
			loadErr = err
			return false, nil
		}
		d.tables[name] = tbl
		d.byID[id] = tbl
		if id > d.nextTID {
			d.nextTID = id
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	if opts.CheckpointInterval > 0 || opts.CheckpointLogBytes > 0 {
		d.startCheckpointer(opts.CheckpointInterval, opts.CheckpointLogBytes)
	}
	return d, nil
}

// discoverHeaps scans all pages and groups them by owner tag.
func (d *Database) discoverHeaps() (map[uint64]*Heap, error) {
	heaps := make(map[uint64]*Heap)
	n := d.disk.NumPages()
	for i := uint64(0); i < n; i++ {
		id := storage.PageID(i)
		pg, err := d.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		owner := pg.Owner()
		free := 0
		if owner != 0 {
			free = storage.Slotted(pg).FreeSpace()
		}
		d.pool.Unpin(id, false)
		if owner == 0 {
			continue
		}
		h := heaps[owner]
		if h == nil {
			h = NewHeap(owner, d.pool, d.log)
			heaps[owner] = h
		}
		h.AttachPage(id, free)
	}
	return heaps, nil
}

// Begin starts a transaction.
func (d *Database) Begin() (*txn.Txn, error) { return d.tm.Begin() }

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tables[name]
}

// Tables returns all user table names, sorted.
func (d *Database) Tables() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateTable creates (or opens, if it already exists) a table. indexCols
// name columns to maintain secondary indexes on.
func (d *Database) CreateTable(name string, schema Schema, indexCols ...string) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.tables[name]; ok {
		return t, nil
	}
	d.nextTID++
	id := d.nextTID

	tx, err := d.tm.Begin()
	if err != nil {
		return nil, err
	}
	_, err = d.catalog.Insert(tx, Row{int64(id), name, EncodeSchema(schema), strings.Join(indexCols, ",")})
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	//tendax:allow-locksync cold path: table creation is schema DDL, done at open; db.mu must cover catalog row and table map atomically
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	heap := NewHeap(id, d.pool, d.log)
	tbl, err := NewTable(id, name, schema, heap)
	if err != nil {
		return nil, err
	}
	for _, c := range indexCols {
		if err := tbl.AddIndex(c); err != nil {
			return nil, err
		}
	}
	d.tables[name] = tbl
	d.byID[id] = tbl
	return tbl, nil
}

// FuzzyCheckpoint takes a non-quiescent checkpoint: it writes back pages
// dirtied before now (advancing the redo horizon), captures the dirty-page
// and active-transaction tables into a begin/end checkpoint record pair,
// and truncates the log prefix below the redo point — all while writers
// keep committing. Recovery then starts from the checkpoint instead of the
// head of history, so both log size and restart time stay bounded by
// checkpoint frequency rather than database age.
func (d *Database) FuzzyCheckpoint() (*wal.CheckpointResult, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Write back everything dirtied before this point so the redo horizon
	// can advance; the WAL barrier on the pool keeps write-ahead order, and
	// pages dirtied while we flush simply stay in the captured DPT.
	if err := d.pool.FlushBelow(uint64(d.log.NextLSN())); err != nil {
		return nil, err
	}
	//tendax:allow-locksync ckptMu serializes checkpoints only; writers keep committing while the fuzzy checkpoint flushes under it
	res, err := d.log.FuzzyCheckpoint(func() ([]storage.DirtyPage, error) {
		dpt := d.pool.DirtyPages()
		// Eviction write-backs clear a page's recLSN without syncing the
		// disk. Truncation treats every update below the captured recLSNs
		// as durable in the page store, so any write-back that predates
		// this capture must be forced down before we return the table.
		if err := d.disk.Sync(); err != nil {
			return nil, err
		}
		return dpt, nil
	}, d.tm.ActiveSnapshot)
	if err != nil {
		return nil, err
	}
	d.ckpts++
	return res, nil
}

// CheckpointCount returns the number of fuzzy checkpoints taken, and the
// last background checkpoint error if any (nil when healthy).
func (d *Database) CheckpointCount() (uint64, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.ckpts, d.ckptErr
}

// startCheckpointer runs fuzzy checkpoints in the background, triggered by
// elapsed time (interval > 0) and/or log growth (maxBytes > 0).
func (d *Database) startCheckpointer(interval time.Duration, maxBytes int64) {
	d.ckptStop = make(chan struct{})
	d.ckptDone = make(chan struct{})
	poll := interval
	if maxBytes > 0 && (poll <= 0 || poll > 100*time.Millisecond) {
		poll = 100 * time.Millisecond // byte trigger needs a finer pulse
	}
	go func() {
		defer close(d.ckptDone)
		tick := time.NewTicker(poll)
		defer tick.Stop()
		last := time.Now()
		var lastEnd wal.LSN // end record of the previous checkpoint
		for {
			select {
			case <-d.ckptStop:
				return
			case <-tick.C:
			}
			fire := interval > 0 && time.Since(last) >= interval
			if !fire && maxBytes > 0 {
				if sz, err := d.log.SizeBytes(); err == nil && sz >= maxBytes {
					fire = true
				}
			}
			if !fire {
				continue
			}
			// An idle database owes no work: if nothing was logged since
			// the previous end record, a new checkpoint would only burn
			// fsyncs and rewrite the log to an identical 2-record state.
			if lastEnd != 0 && d.log.NextLSN() == lastEnd+1 {
				last = time.Now()
				continue
			}
			res, err := d.FuzzyCheckpoint()
			d.ckptMu.Lock()
			prev := d.ckptErr
			d.ckptErr = err // a failure is retried on the next trigger
			d.ckptMu.Unlock()
			// A checkpointer that fails silently defeats its purpose (the
			// WAL grows unbounded with no signal), so log the transitions:
			// once when failures start, once when they stop.
			if err != nil && prev == nil {
				log.Printf("db: background checkpoint failing (will retry): %v", err)
			} else if err == nil && prev != nil {
				log.Printf("db: background checkpoint recovered")
			}
			if err == nil {
				lastEnd = res.EndLSN
			}
			last = time.Now()
		}
	}()
}

// Close takes a final fuzzy checkpoint and releases all resources. With
// no writer left the checkpoint writes back every dirty page and truncates
// the log to its begin/end pair, so the next Open analyzes two records.
func (d *Database) Close() error {
	if d.ckptStop != nil {
		close(d.ckptStop)
		<-d.ckptDone
		d.ckptStop = nil
	}
	if _, err := d.FuzzyCheckpoint(); err != nil {
		return err
	}
	if err := d.log.Close(); err != nil {
		return err
	}
	return d.disk.Close()
}

// WaitDurable blocks until every log record up to and including lsn is on
// stable storage — the durability barrier paired with txn.CommitAsync.
func (d *Database) WaitDurable(lsn wal.LSN) error { return d.log.WaitFlushed(lsn) }

// Log exposes the write-ahead log (durability metrics, benchmarks).
func (d *Database) Log() *wal.Log { return d.log }

// TxnManager exposes the transaction manager (for subsystems that manage
// their own transactions).
func (d *Database) TxnManager() *txn.Manager { return d.tm }

// Pool exposes the buffer pool (for metrics).
func (d *Database) Pool() *storage.BufferPool { return d.pool }
