package hedge

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamassu/internal/backend"
)

// TestHedgeFastPathNoAllocs pins the contract the ISSUE asks for: a
// read over a fast store (adaptive delay below MinDelay, so hedging
// never arms) allocates nothing — including the periodic quantile
// refresh, which must run inside the measured window.
func TestHedgeFastPathNoAllocs(t *testing.T) {
	inner := backend.NewMemStore()
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := backend.WriteFile(inner, "k", payload); err != nil {
		t.Fatal(err)
	}
	s := New(inner, Policy{})
	f, err := s.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	// 2*ringSize iterations guarantee several recompute cycles land
	// inside the measurement.
	allocs := testing.AllocsPerRun(2*ringSize, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("non-hedged fast path allocates %.1f times per read, want 0", allocs)
	}
	if st := s.ReadStats(); st.Hedges != 0 || st.P50 < 0 {
		t.Fatalf("fast store armed hedging: %+v", st)
	}
}

// blockFile is a controllable File: reads block until released (or
// their ctx dies) and record the ctx they ran under.
type blockFile struct {
	backend.File
	s *blockStore
}

type blockStore struct {
	inner backend.Store

	mu       sync.Mutex
	reads    int
	gate     chan struct{} // non-nil: read #1 blocks on it
	canceled atomic.Int64  // reads that died by context
}

func (s *blockStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.inner.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &blockFile{File: f, s: s}, nil
}
func (s *blockStore) Remove(name string) error        { return s.inner.Remove(name) }
func (s *blockStore) Rename(o, n string) error        { return s.inner.Rename(o, n) }
func (s *blockStore) List() ([]string, error)         { return s.inner.List() }
func (s *blockStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

func (f *blockFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	f.s.reads++
	first := f.s.reads == 1
	gate := f.s.gate
	f.s.mu.Unlock()
	if first && gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			f.s.canceled.Add(1)
			return 0, backend.CtxErr(ctx)
		}
	}
	return f.File.ReadAt(p, off)
}

func (f *blockFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return f.File.WriteAt(p, off)
}
func (f *blockFile) TruncateCtx(ctx context.Context, size int64) error { return f.File.Truncate(size) }
func (f *blockFile) SyncCtx(ctx context.Context) error                 { return f.File.Sync() }

// TestHedgeFirstResponseWins: the primary stalls, the hedge answers,
// the caller gets the hedge's bytes, and the stalled loser is
// canceled rather than left running.
func TestHedgeFirstResponseWins(t *testing.T) {
	bs := &blockStore{inner: backend.NewMemStore(), gate: make(chan struct{})}
	payload := []byte("hedged payload bytes")
	if err := backend.WriteFile(bs.inner, "k", payload); err != nil {
		t.Fatal(err)
	}
	s := New(bs, Policy{Delay: time.Millisecond})
	f, err := s.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	n, err := backend.ReadAtCtx(context.Background(), f, buf, 0)
	if err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("hedged read = %d, %v, %q", n, err, buf[:n])
	}
	// The stalled primary must observe cancellation promptly, not hold
	// its goroutine until the gate opens.
	deadline := time.Now().Add(5 * time.Second)
	for bs.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing primary was never canceled")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.ReadStats(); st.Reads != 1 || st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHedgePrimaryErrorBeforeDelay: a primary failing before the
// hedge delay reports its own error and never issues a hedge.
func TestHedgePrimaryErrorBeforeDelay(t *testing.T) {
	s := New(backend.NewMemStore(), Policy{Delay: 50 * time.Millisecond})
	if _, err := s.Open("missing", backend.OpenRead); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Open(missing): %v", err)
	}
	// A failing read: open a real file, then read far past EOF —
	// that's an io.EOF "win", so use a store-level failure instead.
	boom := backend.Retryable(errors.New("read exploded"))
	fs := failStore{err: boom}
	sf := New(fs, Policy{Delay: 50 * time.Millisecond})
	f, err := sf.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = backend.ReadAtCtx(context.Background(), f, make([]byte, 8), 0)
	if !errors.Is(err, boom) {
		t.Fatalf("primary error lost: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("failed primary waited for the hedge delay (%v)", elapsed)
	}
	if st := sf.ReadStats(); st.Hedges != 0 {
		t.Fatalf("hedge issued after the primary already failed: %+v", st)
	}
}

// TestHedgeBothFailReturnsPrimaryError: when primary and hedge both
// fail, the primary's error surfaces (classification preserved).
func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	boom := backend.Retryable(errors.New("both sides down"))
	s := New(slowFailStore{err: boom, delay: 5 * time.Millisecond}, Policy{Delay: time.Microsecond})
	f, err := s.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	_, err = backend.ReadAtCtx(context.Background(), f, make([]byte, 8), 0)
	if !errors.Is(err, boom) || !backend.IsRetryable(err) {
		t.Fatalf("error %v (class %v), want the primary's retryable error", err, backend.Classify(err))
	}
}

// TestHedgeShortReadWins: an EOF-terminated short read is a usable
// response, not a failure to hedge around.
func TestHedgeShortReadWins(t *testing.T) {
	inner := backend.NewMemStore()
	if err := backend.WriteFile(inner, "k", []byte("1234")); err != nil {
		t.Fatal(err)
	}
	s := New(inner, Policy{Delay: time.Minute})
	f, err := s.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	n, err := backend.ReadAtCtx(context.Background(), f, buf, 2)
	if n != 2 || err != io.EOF || string(buf[:n]) != "34" {
		t.Fatalf("short read = %d, %v, %q", n, err, buf[:n])
	}
}

// failStore fails every read instantly; other ops work.
type failStore struct{ err error }

func (s failStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return failFile{err: s.err}, nil
}
func (s failStore) Remove(name string) error        { return nil }
func (s failStore) Rename(o, n string) error        { return nil }
func (s failStore) List() ([]string, error)         { return nil, nil }
func (s failStore) Stat(name string) (int64, error) { return 0, nil }

type failFile struct{ err error }

func (f failFile) ReadAt(p []byte, off int64) (int, error)  { return 0, f.err }
func (f failFile) WriteAt(p []byte, off int64) (int, error) { return 0, f.err }
func (f failFile) Truncate(size int64) error                { return f.err }
func (f failFile) Size() (int64, error)                     { return 0, f.err }
func (f failFile) Sync() error                              { return f.err }
func (f failFile) Close() error                             { return nil }

// slowFailStore fails every read after a short delay (so the hedge
// launches before the primary's failure lands).
type slowFailStore struct {
	err   error
	delay time.Duration
}

func (s slowFailStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return slowFailFile(s), nil
}
func (s slowFailStore) Remove(name string) error        { return nil }
func (s slowFailStore) Rename(o, n string) error        { return nil }
func (s slowFailStore) List() ([]string, error)         { return nil, nil }
func (s slowFailStore) Stat(name string) (int64, error) { return 0, nil }

type slowFailFile struct {
	err   error
	delay time.Duration
}

func (f slowFailFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return 0, f.err
}
func (f slowFailFile) WriteAt(p []byte, off int64) (int, error) { return 0, f.err }
func (f slowFailFile) Truncate(size int64) error                { return f.err }
func (f slowFailFile) Size() (int64, error)                     { return 0, f.err }
func (f slowFailFile) Sync() error                              { return f.err }
func (f slowFailFile) Close() error                             { return nil }
