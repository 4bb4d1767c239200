// RetryStore: bounded retry-with-backoff at the store boundary.
//
// The wrapper sits BENEATH the engine's crash-cut contract: every
// operation it re-issues is idempotent (a retried WriteAt writes the
// identical bytes at the identical offset, a retried Truncate sets
// the identical size), so a retry is exactly the §2.4
// crash-cut-then-resume path run early, and the commit-protocol crash
// sweeps remain valid over a retried store. Only errors Classify
// deems retryable are retried; fatal errors — cancellation included —
// surface on the first occurrence. Cancellation is observed BETWEEN
// attempts only (the backoff wait is context-interruptible, the
// attempt itself is not), preserving the rule that an individual
// backend operation either happens entirely or is never issued.
//
// Backoff is capped exponential with deterministic jitter: the delay
// before re-issuing attempt k is uniformly drawn from
// [base·2^(k-1)/2, 3·base·2^(k-1)/2), capped at MaxDelay, using a
// splitmix64 stream seeded by (Seed, operation sequence, attempt) —
// reproducible run to run, no shared clock or RNG state.
package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// RetryPolicy tunes a RetryStore. The zero value selects the
// defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of times an operation is issued
	// (first try included) before its last retryable error surfaces.
	// 0 selects 4; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-issue (0 selects
	// 1ms); MaxDelay caps the exponential growth (0 selects 64×
	// BaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff.
	MaxDelay time.Duration
	// Seed perturbs the deterministic jitter stream; two stores with
	// the same seed observe identical backoff schedules.
	Seed uint64
	// Sleep, when non-nil, replaces the real backoff wait — the test
	// and simulation hook. It must honor ctx like simclock.SleepCtx: a
	// nil ctx waits unconditionally, a canceled one cuts the wait
	// short with a non-nil error.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 64 * p.baseDelay()
	}
	return p.MaxDelay
}

// RetryStats counts a RetryStore's lifetime retry activity.
type RetryStats struct {
	// Retries is the number of re-issued attempts (not counting each
	// operation's first try).
	Retries int64
	// Exhausted is the number of operations that still failed with a
	// retryable error after their final attempt.
	Exhausted int64
}

// RetryStore wraps an inner Store, re-issuing operations whose error
// classifies as retryable. It implements StoreCtx, and the files it
// opens implement FileCtx, so contexts keep flowing to the inner
// store.
type RetryStore struct {
	inner Store
	p     RetryPolicy

	seq       atomic.Uint64
	retries   atomic.Int64
	exhausted atomic.Int64
}

// NewRetryStore wraps inner with the given policy.
func NewRetryStore(inner Store, p RetryPolicy) *RetryStore {
	return &RetryStore{inner: inner, p: p}
}

// Inner returns the wrapped store.
func (s *RetryStore) Inner() Store { return s.inner }

// Stats returns a snapshot of the retry counters.
func (s *RetryStore) Stats() RetryStats {
	return RetryStats{Retries: s.retries.Load(), Exhausted: s.exhausted.Load()}
}

// splitmix64 is the finalizer of the splitmix64 PRNG — the same
// construction the placement ring uses — applied here to hash
// (seed, op sequence, attempt) into a jitter draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the deterministic jittered delay before re-issuing
// attempt (1-based counting the attempt that just failed).
func (s *RetryStore) backoff(seq uint64, attempt int) time.Duration {
	d := s.p.baseDelay() << (attempt - 1)
	if maxd := s.p.maxDelay(); d <= 0 || d > maxd { // <= 0: shift overflow
		d = maxd
	}
	// Uniform in [d/2, 3d/2), then re-capped.
	h := splitmix64(s.p.Seed ^ splitmix64(seq<<16|uint64(attempt)))
	frac := float64(h>>11) / float64(1<<53)
	j := d/2 + time.Duration(frac*float64(d))
	if maxd := s.p.maxDelay(); j > maxd {
		j = maxd
	}
	return j
}

// sleep waits d honoring ctx, via the policy's hook when set.
func (s *RetryStore) sleep(ctx context.Context, d time.Duration) error {
	if s.p.Sleep != nil {
		return s.p.Sleep(ctx, d)
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return CtxErr(ctx)
	}
}

// do runs f up to MaxAttempts times, backing off between retryable
// failures. ctx is observed between attempts only; a cancellation
// during the backoff (or found pending before a re-issue) returns the
// ErrCanceled-wrapped context error, leaving the store in a state the
// crash-cut recovery contract already covers.
func (s *RetryStore) do(ctx context.Context, op string, f func() error) error {
	attempts := s.p.maxAttempts()
	seq := s.seq.Add(1)
	for attempt := 1; ; attempt++ {
		err := f()
		if Classify(err) != ClassRetryable {
			return err
		}
		if attempt >= attempts {
			s.exhausted.Add(1)
			if attempts == 1 {
				return err // retries disabled: surface untouched
			}
			return fmt.Errorf("backend: %s: retries exhausted after %d attempts: %w", op, attempts, err)
		}
		s.retries.Add(1)
		if serr := s.sleep(ctx, s.backoff(seq, attempt)); serr != nil {
			if cerr := CtxErr(ctx); cerr != nil {
				return cerr
			}
			return serr
		}
		if cerr := CtxErr(ctx); cerr != nil {
			return cerr
		}
	}
}

// Open implements Store.
func (s *RetryStore) Open(name string, flag OpenFlag) (File, error) {
	return s.OpenCtx(nil, name, flag)
}

// OpenCtx implements StoreCtx.
func (s *RetryStore) OpenCtx(ctx context.Context, name string, flag OpenFlag) (File, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	var inner File
	err := s.do(ctx, "open", func() error {
		f, err := OpenCtx(ctx, s.inner, name, flag)
		if err == nil {
			inner = f
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &retryFile{store: s, inner: inner}, nil
}

// Remove implements Store.
func (s *RetryStore) Remove(name string) error { return s.RemoveCtx(nil, name) }

// RemoveCtx implements StoreCtx.
func (s *RetryStore) RemoveCtx(ctx context.Context, name string) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return s.do(ctx, "remove", func() error { return RemoveCtx(ctx, s.inner, name) })
}

// Rename implements Store.
func (s *RetryStore) Rename(oldName, newName string) error {
	return s.do(nil, "rename", func() error { return s.inner.Rename(oldName, newName) })
}

// List implements Store.
func (s *RetryStore) List() ([]string, error) { return s.ListCtx(nil) }

// ListCtx implements StoreCtx.
func (s *RetryStore) ListCtx(ctx context.Context) ([]string, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	var names []string
	err := s.do(ctx, "list", func() error {
		ns, err := ListCtx(ctx, s.inner)
		if err == nil {
			names = ns
		}
		return err
	})
	return names, err
}

// Stat implements Store.
func (s *RetryStore) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

// StatCtx implements StoreCtx.
func (s *RetryStore) StatCtx(ctx context.Context, name string) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	var size int64
	err := s.do(ctx, "stat", func() error {
		sz, err := StatCtx(ctx, s.inner, name)
		if err == nil {
			size = sz
		}
		return err
	})
	return size, err
}

// retryFile wraps a File with the store's retry loop. Reads and
// writes are positional and therefore idempotent: a re-issued ReadAt
// re-requests the identical range (any partial progress from the
// failed attempt is discarded), a re-issued WriteAt rewrites the
// identical bytes.
type retryFile struct {
	store *RetryStore
	inner File
}

// ReadAt implements File.
func (f *retryFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

// ReadAtCtx implements FileCtx.
func (f *retryFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	var n int
	err := f.store.do(ctx, "read", func() error {
		var err error
		n, err = ReadAtCtx(ctx, f.inner, p, off)
		return err
	})
	return n, err
}

// WriteAt implements File.
func (f *retryFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

// WriteAtCtx implements FileCtx.
func (f *retryFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	var n int
	err := f.store.do(ctx, "write", func() error {
		var err error
		n, err = WriteAtCtx(ctx, f.inner, p, off)
		return err
	})
	return n, err
}

// Truncate implements File.
func (f *retryFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

// TruncateCtx implements FileCtx.
func (f *retryFile) TruncateCtx(ctx context.Context, size int64) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return f.store.do(ctx, "truncate", func() error { return TruncateCtx(ctx, f.inner, size) })
}

// Size implements File.
func (f *retryFile) Size() (int64, error) {
	var size int64
	err := f.store.do(nil, "size", func() error {
		sz, err := f.inner.Size()
		if err == nil {
			size = sz
		}
		return err
	})
	return size, err
}

// Sync implements File.
func (f *retryFile) Sync() error { return f.SyncCtx(nil) }

// SyncCtx implements FileCtx.
func (f *retryFile) SyncCtx(ctx context.Context) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return f.store.do(ctx, "sync", func() error { return SyncCtx(ctx, f.inner) })
}

// Close implements File. Closing is not retried: a failed close
// leaves the handle state unknown, and ErrClosed on a re-issue would
// mask the original error.
func (f *retryFile) Close() error { return f.inner.Close() }
