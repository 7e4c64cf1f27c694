package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Store is the append-only byte sink behind the log. Implementations must
// be safe for concurrent use.
type Store interface {
	// Append writes b at the end of the store.
	Append(b []byte) error
	// ReadAll returns the full store contents.
	ReadAll() ([]byte, error)
	// Sync forces appended data to stable storage.
	Sync() error
	// Size returns the current store length in bytes.
	Size() (int64, error)
	// TruncateHead atomically discards the first off bytes (fuzzy-
	// checkpoint log reclamation: every record below the redo point is
	// already durable in the page store). The caller guarantees off lies on
	// a record boundary; concurrent Appends are preserved.
	TruncateHead(off int64) error
	// Close releases resources.
	Close() error
}

// FileStore is a Store backed by an operating-system file.
type FileStore struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenFileStore opens (creating if needed) the log file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileStore{f: f, path: path}, nil
}

// Append implements Store.
func (s *FileStore) Append(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.f.Write(b)
	return err
}

// ReadAll implements Store.
func (s *FileStore) ReadAll() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(s.path)
}

// Sync implements Store.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Size implements Store.
func (s *FileStore) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// TruncateHead implements Store. The retained suffix is streamed to a
// sibling file, synced, and renamed over the log, so a crash at any point
// leaves either the old log or the complete truncated one — never a log
// missing committed records. Appends hold the same mutex, so the suffix
// read here is consistent; only the suffix is read, never the discarded
// prefix.
func (s *FileStore) TruncateHead(off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off <= 0 {
		return nil
	}
	src, err := os.Open(s.path)
	if err != nil {
		return err
	}
	if _, err := src.Seek(off, io.SeekStart); err != nil {
		_ = src.Close()
		return err
	}
	tmp := s.path + ".truncate"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		_ = src.Close()
		return err
	}
	_, err = io.Copy(tf, src)
	_ = src.Close()
	if err != nil {
		_ = tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old := s.f
	s.f = f
	_ = old.Close()
	// Make the rename itself durable (best effort — not all filesystems
	// support directory fsync).
	if dir, err := os.Open(filepath.Dir(s.path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// MemStore is an in-memory Store for tests and benchmarks. Truncate allows
// crash-injection tests to simulate a torn tail.
type MemStore struct {
	mu   sync.Mutex
	data []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = append(s.data, b...)
	return nil
}

// ReadAll implements Store.
func (s *MemStore) ReadAll() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.data...), nil
}

// Sync implements Store.
func (s *MemStore) Sync() error { return nil }

// Size implements Store.
func (s *MemStore) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.data)), nil
}

// TruncateHead implements Store.
func (s *MemStore) TruncateHead(off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off <= 0 {
		return nil
	}
	if off > int64(len(s.data)) {
		off = int64(len(s.data))
	}
	s.data = append([]byte(nil), s.data[off:]...)
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// Len returns the current store size in bytes.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Truncate cuts the store to n bytes, simulating a crash that tore the
// tail of the log.
func (s *MemStore) Truncate(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < len(s.data) {
		s.data = s.data[:n]
	}
}
