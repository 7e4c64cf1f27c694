// Package wal implements the write-ahead log of the TeNDaX embedded
// database and ARIES-style crash recovery (analysis, redo, undo) over the
// slotted-page heap.
//
// Every mutation of a heap page is logged before the page is modified
// (write-ahead rule); a transaction is acknowledged as committed only after
// its commit record is durable. Recovery replays history to restore all
// committed effects and rolls back losers with compensation records, so a
// crash at any point preserves exactly the committed transactions.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LSN is a log sequence number: a strictly increasing record ordinal.
// LSN 0 means "no record".
type LSN uint64

// RecordType discriminates log records.
type RecordType uint8

// Log record types.
const (
	RecBegin RecordType = iota + 1
	RecCommit
	RecAbort // abort completed (all undone)
	RecUpdate
	RecCLR // compensation record written while undoing
	// RecCheckpoint is the retired quiescent checkpoint. Nothing writes
	// it and recovery ignores it; it stays so RecCkptBegin and RecCkptEnd
	// keep their on-disk numbers.
	RecCheckpoint
	RecCkptBegin // fuzzy checkpoint started
	RecCkptEnd   // fuzzy checkpoint complete; After carries CheckpointBody
)

func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecUpdate:
		return "UPDATE"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecCkptBegin:
		return "CKPT-BEGIN"
	case RecCkptEnd:
		return "CKPT-END"
	default:
		return fmt.Sprintf("REC(%d)", uint8(t))
	}
}

// PageOp is the kind of slotted-page mutation carried by an update record.
type PageOp uint8

// Page operation kinds.
const (
	OpInsert PageOp = iota + 1
	OpUpdate
	OpDelete
)

// Record is one write-ahead log entry.
type Record struct {
	LSN     LSN
	Type    RecordType
	TxnID   uint64
	PrevLSN LSN // previous record of the same transaction (undo chain)

	// Update / CLR payload.
	Page   uint64
	Slot   uint32
	Op     PageOp
	Owner  uint64 // heap (table) owning the page; redo re-stamps it
	Before []byte // pre-image (empty for insert)
	After  []byte // post-image (empty for delete)

	// CLR only: next record to undo for this transaction.
	UndoNext LSN
}

// ErrTorn reports a truncated or corrupted log tail; recovery treats
// everything from that point on as never written.
var ErrTorn = errors.New("wal: torn log tail")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encode serialises r (without LSN-assignment responsibilities).
func encode(r *Record) []byte {
	n := 8 + 1 + 8 + 8 + 8 + 4 + 1 + 8 + 4 + len(r.Before) + 4 + len(r.After) + 8
	buf := make([]byte, 0, n)
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:8]...)
	}
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64(uint64(r.LSN))
	buf = append(buf, byte(r.Type))
	put64(r.TxnID)
	put64(uint64(r.PrevLSN))
	put64(r.Page)
	put32(r.Slot)
	buf = append(buf, byte(r.Op))
	put64(r.Owner)
	put32(uint32(len(r.Before)))
	buf = append(buf, r.Before...)
	put32(uint32(len(r.After)))
	buf = append(buf, r.After...)
	put64(uint64(r.UndoNext))
	return buf
}

// decode parses one record payload produced by encode.
func decode(b []byte) (*Record, error) {
	r := &Record{}
	get64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, ErrTorn
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	get32 := func() (uint32, error) {
		if len(b) < 4 {
			return 0, ErrTorn
		}
		v := binary.BigEndian.Uint32(b)
		b = b[4:]
		return v, nil
	}
	getByte := func() (byte, error) {
		if len(b) < 1 {
			return 0, ErrTorn
		}
		v := b[0]
		b = b[1:]
		return v, nil
	}
	lsn, err := get64()
	if err != nil {
		return nil, err
	}
	r.LSN = LSN(lsn)
	ty, err := getByte()
	if err != nil {
		return nil, err
	}
	r.Type = RecordType(ty)
	if r.TxnID, err = get64(); err != nil {
		return nil, err
	}
	prev, err := get64()
	if err != nil {
		return nil, err
	}
	r.PrevLSN = LSN(prev)
	if r.Page, err = get64(); err != nil {
		return nil, err
	}
	if r.Slot, err = get32(); err != nil {
		return nil, err
	}
	op, err := getByte()
	if err != nil {
		return nil, err
	}
	r.Op = PageOp(op)
	if r.Owner, err = get64(); err != nil {
		return nil, err
	}
	bl, err := get32()
	if err != nil {
		return nil, err
	}
	if uint32(len(b)) < bl {
		return nil, ErrTorn
	}
	if bl > 0 {
		r.Before = append([]byte(nil), b[:bl]...)
	}
	b = b[bl:]
	al, err := get32()
	if err != nil {
		return nil, err
	}
	if uint32(len(b)) < al {
		return nil, ErrTorn
	}
	if al > 0 {
		r.After = append([]byte(nil), b[:al]...)
	}
	b = b[al:]
	un, err := get64()
	if err != nil {
		return nil, err
	}
	r.UndoNext = LSN(un)
	return r, nil
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// pendingKick bounds how many bytes may sit in the append buffer before an
// Append wakes the group-commit flusher on its own (commit waiters wake it
// regardless); it caps memory for huge transactions.
const pendingKick = 1 << 20

// Log is the write-ahead log. Append assigns LSNs; Flush makes all appended
// records durable. A commit is durable once Flush returns after appending
// the commit record.
//
// In its default (synchronous) mode every Flush performs its own
// store.Sync. StartGroupCommit switches the log to group-commit mode: a
// single background flusher coalesces all pending records into one
// store.Append+Sync per batch and wakes every waiter whose commit LSN the
// batch covers, so N concurrent committers share one fsync instead of
// paying one each. WaitFlushed is the durability barrier in both modes.
type Log struct {
	mu       sync.Mutex
	store    Store
	nextLSN  LSN
	flushed  LSN
	appended LSN
	pending  []byte

	// Group-commit state (nil / zero while in synchronous mode).
	flusherOn   bool
	groupDelay  time.Duration // max extra coalescing wait per batch
	flushReq    chan struct{} // wakes the flusher (capacity 1)
	flusherDone chan struct{}
	durable     *sync.Cond // broadcast after every batch reaches disk
	flushErr    error      // sticky: a failed batch poisons the log
	closed      bool
	syncs       uint64 // store.Sync calls (batching observability)

	// Self-clocking batch sizing: the flusher waits (up to groupDelay) for
	// as many commits as the previous batch carried before syncing, so a
	// steady stream of N concurrent committers converges on batches of ~N
	// while a single committer never waits at all. pendingCommits is
	// atomic so the coalescing spin can poll it without contending l.mu
	// against the very Appends it is waiting for.
	pendingCommits atomic.Int64 // commit records appended since the last grab
	lastBatchSize  int64        // commit records in the previous batch
}

// Open creates a Log over store, positioning the next LSN after any
// existing records (scanning stops at a torn tail).
func Open(store Store) (*Log, error) {
	l := &Log{store: store, nextLSN: 1}
	err := iterate(store, func(r *Record) error {
		if r.LSN >= l.nextLSN {
			l.nextLSN = r.LSN + 1
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrTorn) {
		return nil, err
	}
	l.flushed = l.nextLSN - 1
	l.appended = l.flushed
	l.durable = sync.NewCond(&l.mu)
	return l, nil
}

// StartGroupCommit switches the log to group-commit mode. maxDelay is the
// longest the flusher waits after picking up work before syncing, letting
// more commits join the batch; zero flushes as soon as the previous sync
// returns (arrivals during a sync still coalesce into the next batch).
// Idempotent; must not be called after Close.
func (l *Log) StartGroupCommit(maxDelay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flusherOn || l.closed {
		return
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	l.flusherOn = true
	l.groupDelay = maxDelay
	l.flushReq = make(chan struct{}, 1)
	l.flusherDone = make(chan struct{})
	go l.flusher()
}

// GroupCommit reports whether the background flusher is running.
func (l *Log) GroupCommit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flusherOn
}

// SyncCount returns the number of store.Sync calls performed so far; the
// ratio of commits to syncs measures group-commit batching.
func (l *Log) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// coalesce implements the self-clocked batch window: after a wake-up the
// flusher briefly yields the CPU (bounded by groupDelay) until as many
// commits as the previous batch carried have enlisted. Committers that just
// woke from the last batch's broadcast get the cycles to finish their next
// transaction and join this batch, instead of landing one sync behind. A
// previous batch of ≤1 commit — the single-writer case — skips the window
// entirely, so an isolated commit only ever pays its own sync.
func (l *Log) coalesce() {
	l.mu.Lock()
	want := l.lastBatchSize
	delay := l.groupDelay
	l.mu.Unlock()
	if want <= 1 || delay <= 0 {
		return
	}
	deadline := time.Now().Add(delay)
	for l.pendingCommits.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// kickLocked wakes the flusher without blocking. Caller holds l.mu.
func (l *Log) kickLocked() {
	select {
	case l.flushReq <- struct{}{}:
	default:
	}
}

// flusher is the group-commit loop: pick up everything appended so far,
// write and sync it as one batch, publish the new durable horizon, repeat.
// Appends are never blocked by a sync in progress — they buffer under l.mu
// while the flusher runs store I/O outside it — which is where the batching
// comes from: a batch absorbs every commit that arrived during the previous
// sync.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		<-l.flushReq
		l.coalesce()
		l.mu.Lock()
		if len(l.pending) == 0 {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		batch := l.pending
		l.pending = nil
		target := l.appended
		grabbed := l.pendingCommits.Swap(0)
		l.mu.Unlock()

		err := l.store.Append(batch)
		if err == nil {
			err = l.store.Sync()
		}

		l.mu.Lock()
		// Concurrency estimate for the next coalescing window: committers
		// in this batch plus committers that arrived while it was syncing.
		// A lone writer blocked on this sync contributes exactly 1, so it
		// never waits; two alternating writers estimate 2 and start
		// sharing a sync instead of leapfrogging forever.
		l.lastBatchSize = grabbed + l.pendingCommits.Load()
		if err != nil {
			l.flushErr = err
		} else {
			l.flushed = target
			l.syncs++
		}
		l.durable.Broadcast()
		closed := l.closed
		more := len(l.pending) > 0
		if more {
			l.kickLocked()
		}
		l.mu.Unlock()
		if closed && !more {
			return
		}
	}
}

// WaitFlushed blocks until every record up to and including lsn is durable.
// It is the commit-side durability barrier: in group-commit mode it enlists
// in the current batch and sleeps until the flusher's sync covers lsn; in
// synchronous mode it flushes inline.
func (l *Log) WaitFlushed(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// An already-durable prefix stays durable regardless of later batch
	// failures, so the horizon check precedes the sticky-error check (the
	// post-wait switch below keeps the same priority).
	if l.flushed >= lsn {
		return nil
	}
	if l.flushErr != nil {
		return l.flushErr
	}
	if !l.flusherOn {
		return l.flushLocked()
	}
	for l.flushed < lsn && l.flushErr == nil && !l.closed {
		l.kickLocked()
		l.durable.Wait()
	}
	switch {
	case l.flushed >= lsn:
		return nil
	case l.flushErr != nil:
		return l.flushErr
	default:
		return ErrClosed
	}
}

// Append adds r to the log, assigning and returning its LSN. The record is
// buffered; call Flush to make it durable.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.nextLSN
	l.nextLSN++
	payload := encode(r)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	l.appended = r.LSN
	if r.Type == RecCommit {
		l.pendingCommits.Add(1)
	}
	if l.flusherOn && len(l.pending) >= pendingKick {
		l.kickLocked()
	}
	return r.LSN, nil
}

// Flush makes all appended records durable.
func (l *Log) Flush() error {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	return l.WaitFlushed(target)
}

// flushLocked writes and syncs everything pending, synchronously. Caller
// holds l.mu; only used while the group-commit flusher is not running.
func (l *Log) flushLocked() error {
	if l.flushErr != nil {
		return l.flushErr
	}
	if len(l.pending) == 0 {
		return nil
	}
	if err := l.store.Append(l.pending); err != nil {
		return err
	}
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.pending = l.pending[:0]
	l.flushed = l.appended
	l.syncs++
	return nil
}

// FlushedLSN returns the LSN of the last durable record.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Close stops the group-commit flusher (if running), flushes, and closes
// the underlying store.
func (l *Log) Close() error {
	l.mu.Lock()
	wasOn := l.flusherOn
	if !l.closed {
		l.closed = true
		if wasOn {
			l.kickLocked()
		}
	}
	l.mu.Unlock()
	if wasOn {
		<-l.flusherDone
		l.mu.Lock()
		l.flusherOn = false
		l.durable.Broadcast() // release any stragglers with ErrClosed
		l.mu.Unlock()
	}
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.store.Close()
}

// iterate decodes every durable record in order, stopping cleanly at a torn
// tail (returning ErrTorn wrapped only for hard corruption before the tail).
func iterate(store Store, fn func(*Record) error) error {
	data, err := store.ReadAll()
	if err != nil {
		return err
	}
	for len(data) > 0 {
		if len(data) < 8 {
			return ErrTorn
		}
		n := binary.BigEndian.Uint32(data[:4])
		crc := binary.BigEndian.Uint32(data[4:8])
		if uint32(len(data)-8) < n {
			return ErrTorn
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return ErrTorn
		}
		rec, err := decode(payload)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		data = data[8+n:]
	}
	return nil
}

// Iterate replays every durable record in LSN order. A torn tail terminates
// iteration without error (the tail is treated as never written).
func (l *Log) Iterate(fn func(*Record) error) error {
	err := iterate(l.store, fn)
	if errors.Is(err, ErrTorn) {
		return nil
	}
	return err
}
