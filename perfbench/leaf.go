package main

import (
	"context"
	"sync/atomic"

	"lamassu/internal/backend"
)

// leafCounts is the work one leaf store did. busyNs is summed call time
// and is only measured in the traced run.
type leafCounts struct {
	opens, reads, writes, syncs, other atomic.Int64
	bytesRead, bytesWritten, busyNs    atomic.Int64
}

// leafStore decorates the store at the bottom of the stack (a memstore
// or the object-store client). It forwards StoreCtx/FileCtx, so the
// context reaching it is the one core passed down, and the parent span
// riding that context is the benchmark-side call that caused the I/O.
// It goes under NewShardedStorage, so the mount still sees a
// *shard.Store.
type leafStore struct {
	inner backend.Store
	tr    *tracer
	n     leafCounts
}

func newLeaf(inner backend.Store, tr *tracer) *leafStore { return &leafStore{inner: inner, tr: tr} }

// done records the leaf call begun at (id, start) as a span under ctx's
// span. Untraced, begin and done do not read the clock.
func (s *leafStore) done(ctx context.Context, id uint64, start int64) {
	if s.tr != nil {
		s.n.busyNs.Add(int64(s.tr.end(id, spanOf(ctx), kindLeaf, start)))
	}
}

func (s *leafStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

func (s *leafStore) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (f backend.File, err error) {
	s.n.opens.Add(1)
	id, start := s.tr.begin()
	f, err = backend.OpenCtx(ctx, s.inner, name, flag)
	s.done(ctx, id, start)
	if err != nil {
		return nil, err
	}
	return &leafFile{inner: f, s: s}, nil
}

func (s *leafStore) Remove(name string) error { return s.RemoveCtx(nil, name) }

func (s *leafStore) RemoveCtx(ctx context.Context, name string) (err error) {
	s.n.other.Add(1)
	id, start := s.tr.begin()
	err = backend.RemoveCtx(ctx, s.inner, name)
	s.done(ctx, id, start)
	return err
}

func (s *leafStore) Rename(oldName, newName string) (err error) {
	s.n.other.Add(1)
	id, start := s.tr.begin()
	err = s.inner.Rename(oldName, newName)
	s.done(nil, id, start)
	return err
}

func (s *leafStore) List() ([]string, error) { return s.ListCtx(nil) }

func (s *leafStore) ListCtx(ctx context.Context) (names []string, err error) {
	s.n.other.Add(1)
	id, start := s.tr.begin()
	names, err = backend.ListCtx(ctx, s.inner)
	s.done(ctx, id, start)
	return names, err
}

func (s *leafStore) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

func (s *leafStore) StatCtx(ctx context.Context, name string) (n int64, err error) {
	s.n.other.Add(1)
	id, start := s.tr.begin()
	n, err = backend.StatCtx(ctx, s.inner, name)
	s.done(ctx, id, start)
	return n, err
}

type leafFile struct {
	inner backend.File
	s     *leafStore
}

func (f *leafFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

func (f *leafFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (n int, err error) {
	f.s.n.reads.Add(1)
	id, start := f.s.tr.begin()
	n, err = backend.ReadAtCtx(ctx, f.inner, p, off)
	f.s.done(ctx, id, start)
	f.s.n.bytesRead.Add(int64(n))
	return n, err
}

func (f *leafFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

func (f *leafFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (n int, err error) {
	f.s.n.writes.Add(1)
	id, start := f.s.tr.begin()
	n, err = backend.WriteAtCtx(ctx, f.inner, p, off)
	f.s.done(ctx, id, start)
	f.s.n.bytesWritten.Add(int64(n))
	return n, err
}

func (f *leafFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

func (f *leafFile) TruncateCtx(ctx context.Context, size int64) (err error) {
	f.s.n.other.Add(1)
	id, start := f.s.tr.begin()
	err = backend.TruncateCtx(ctx, f.inner, size)
	f.s.done(ctx, id, start)
	return err
}

func (f *leafFile) Size() (int64, error) { return f.inner.Size() }

func (f *leafFile) Sync() error { return f.SyncCtx(nil) }

func (f *leafFile) SyncCtx(ctx context.Context) (err error) {
	f.s.n.syncs.Add(1)
	id, start := f.s.tr.begin()
	err = backend.SyncCtx(ctx, f.inner)
	f.s.done(ctx, id, start)
	return err
}

func (f *leafFile) Close() (err error) {
	id, start := f.s.tr.begin()
	err = f.inner.Close()
	f.s.done(nil, id, start)
	return err
}

// leafTotals sums the counters of several leaves.
type leafTotals struct {
	opens, reads, writes, syncs, other int64
	bytesRead, bytesWritten            int64
	busyS                              float64
	busyPerLeafS                       []float64
}

func sumLeaves(leaves []*leafStore) leafTotals {
	var t leafTotals
	for _, l := range leaves {
		t.opens += l.n.opens.Load()
		t.reads += l.n.reads.Load()
		t.writes += l.n.writes.Load()
		t.syncs += l.n.syncs.Load()
		t.other += l.n.other.Load()
		t.bytesRead += l.n.bytesRead.Load()
		t.bytesWritten += l.n.bytesWritten.Load()
		b := float64(l.n.busyNs.Load()) / 1e9
		t.busyS += b
		t.busyPerLeafS = append(t.busyPerLeafS, b)
	}
	return t
}
