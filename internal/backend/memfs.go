package backend

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MemStore is an in-memory Store. It models the paper's RAM-disk
// (tmpfs) backing store: I/O is memory-speed and the only cost is the
// memcpy, so CPU-bound encryption work dominates — the regime of
// Figures 8, 9 and 10.
//
// MemStore also counts operations (reads, writes, syncs and bytes
// moved), which the benchmark harness and the I/O-amplification tests
// use to verify the paper's m+2 I/Os-per-commit claim.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*memData

	// The operation counters are atomics and never take mu: ReadAt and
	// WriteAt count while holding a file's lock, and Stat and
	// TotalBytes take mu before a file's lock, so counting under mu
	// would invert that order and deadlock.
	reads, writes, syncs, bytesRead, bytesWritten atomic.Int64
}

// StoreStats is a snapshot of operation counters for a MemStore.
type StoreStats struct {
	Reads        int64 // number of ReadAt calls
	Writes       int64 // number of WriteAt calls
	Syncs        int64 // number of Sync calls
	BytesRead    int64
	BytesWritten int64
}

// memData is the shared content of one file; handles reference it.
type memData struct {
	mu   sync.RWMutex
	data []byte
}

// grow extends d.data to size bytes with amortized-doubling capacity
// growth, so a file written by many small extending writes costs O(n)
// total copying instead of O(n²). Bytes re-exposed from a previous
// truncation are zeroed, preserving the contract that extended ranges
// read as zeros. The caller must hold d.mu exclusively.
func (d *memData) grow(size int64) {
	cur := int64(len(d.data))
	if size <= cur {
		return
	}
	if size <= int64(cap(d.data)) {
		d.data = d.data[:size]
		clear(d.data[cur:])
		return
	}
	newCap := 2 * int64(cap(d.data))
	if newCap < size {
		newCap = size
	}
	grown := make([]byte, size, newCap)
	copy(grown, d.data)
	d.data = grown
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*memData)}
}

// Open implements Store.
func (s *MemStore) Open(name string, flag OpenFlag) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[name]
	if !ok {
		if flag != OpenCreate {
			return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
		}
		d = &memData{}
		s.files[name] = d
	}
	return &memFile{store: s, data: d, readOnly: flag == OpenRead}, nil
}

// Remove implements Store.
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	delete(s.files, name)
	return nil
}

// Rename implements Store.
func (s *MemStore) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
	}
	delete(s.files, oldName)
	s.files[newName] = d
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements Store.
func (s *MemStore) Stat(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data)), nil
}

// Stats returns a snapshot of the operation counters.
func (s *MemStore) Stats() StoreStats {
	return StoreStats{Reads: s.reads.Load(), Writes: s.writes.Load(), Syncs: s.syncs.Load(),
		BytesRead: s.bytesRead.Load(), BytesWritten: s.bytesWritten.Load()}
}

// ResetStats zeroes the operation counters.
func (s *MemStore) ResetStats() {
	for _, c := range []*atomic.Int64{&s.reads, &s.writes, &s.syncs, &s.bytesRead, &s.bytesWritten} {
		c.Store(0)
	}
}

// TotalBytes returns the sum of all file sizes (the RAM disk's du).
func (s *MemStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, d := range s.files {
		d.mu.RLock()
		total += int64(len(d.data))
		d.mu.RUnlock()
	}
	return total
}

type memFile struct {
	store    *MemStore
	data     *memData
	readOnly bool

	mu     sync.Mutex
	closed bool
}

func (f *memFile) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// ReadAt implements io.ReaderAt.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	if off >= int64(len(f.data.data)) {
		return 0, errEOF
	}
	n := copy(p, f.data.data[off:])
	f.store.reads.Add(1)
	f.store.bytesRead.Add(int64(n))
	if n < len(p) {
		return n, errEOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if f.readOnly {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	end := off + int64(len(p))
	f.data.grow(end)
	copy(f.data.data[off:end], p)
	f.store.writes.Add(1)
	f.store.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}

// Truncate implements File.
func (f *memFile) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return ErrReadOnly
	}
	if size < 0 {
		return fmt.Errorf("memfs: negative size %d", size)
	}
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	cur := int64(len(f.data.data))
	switch {
	case size < cur:
		// Keep the capacity: grow zeroes re-exposed bytes, and shrink
		// followed by regrowth is the write paths' common pattern.
		f.data.data = f.data.data[:size]
	case size > cur:
		f.data.grow(size)
	}
	return nil
}

// Size implements File.
func (f *memFile) Size() (int64, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	return int64(len(f.data.data)), nil
}

// Sync implements File. Memory is already "stable"; only counted.
func (f *memFile) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.store.syncs.Add(1)
	return nil
}

// Close implements File.
func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
