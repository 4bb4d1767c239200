package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestClassifyTaxonomy(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"unknown defaults fatal", base, ClassFatal},
		{"marked retryable", Retryable(base), ClassRetryable},
		{"marked fatal", Fatal(base), ClassFatal},
		{"wrapped marked retryable", fmt.Errorf("layer: %w", Retryable(base)), ClassRetryable},
		{"wrapped marked fatal", fmt.Errorf("layer: %w", Fatal(base)), ClassFatal},
		{"canceled", ErrCanceled, ClassFatal},
		{"ctx canceled", context.Canceled, ClassFatal},
		{"deadline", context.DeadlineExceeded, ClassFatal},
		{"not exist", ErrNotExist, ClassFatal},
		{"closed", ErrClosed, ClassFatal},
		{"read only", ErrReadOnly, ClassFatal},
		{"etimedout", syscall.ETIMEDOUT, ClassRetryable},
		{"econnreset wrapped", fmt.Errorf("dial: %w", syscall.ECONNRESET), ClassRetryable},
		{"estale", syscall.ESTALE, ClassRetryable},
		{"enoent errno is fatal", syscall.ENOENT, ClassFatal},
		{"short read is fatal", io.ErrUnexpectedEOF, ClassFatal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Fatalf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestClassifyMarksWin(t *testing.T) {
	// An explicit mark overrides the structural rule for the underlying
	// error in both directions.
	if got := Classify(Fatal(syscall.ETIMEDOUT)); got != ClassFatal {
		t.Fatalf("Fatal mark on transient errno: Classify = %v, want fatal", got)
	}
	if got := Classify(Retryable(errors.New("custom transient"))); got != ClassRetryable {
		t.Fatalf("Retryable mark on unknown error: Classify = %v, want retryable", got)
	}
}

func TestMarksAreErrorsIsClean(t *testing.T) {
	base := fmt.Errorf("op: %w", ErrNotExist)
	marked := Retryable(base)
	if !errors.Is(marked, ErrRetryable) {
		t.Fatal("mark lost: errors.Is(marked, ErrRetryable) = false")
	}
	if !errors.Is(marked, ErrNotExist) {
		t.Fatal("chain broken: errors.Is(marked, ErrNotExist) = false")
	}
	if marked.Error() != base.Error() {
		t.Fatalf("mark leaked into message: %q != %q", marked.Error(), base.Error())
	}
	// No double marking, no cross-marking.
	if again := Retryable(marked); again != marked {
		t.Fatal("Retryable re-marked an already-marked error")
	}
	if cross := Fatal(marked); cross != marked {
		t.Fatal("Fatal re-marked a Retryable-marked error")
	}
	if Retryable(nil) != nil || Fatal(nil) != nil {
		t.Fatal("marking nil must stay nil")
	}
}

// flakyStore wraps a MemStore, failing operations with a scripted
// error until `fail` attempts have been consumed.
type flakyStore struct {
	*MemStore
	fail int
	err  error
	ops  int
}

func (s *flakyStore) trip() error {
	s.ops++
	if s.fail > 0 {
		s.fail--
		return s.err
	}
	return nil
}

func (s *flakyStore) Open(name string, flag OpenFlag) (File, error) {
	if err := s.trip(); err != nil {
		return nil, err
	}
	f, err := s.MemStore.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: f, s: s}, nil
}

func (s *flakyStore) Remove(name string) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.MemStore.Remove(name)
}

func (s *flakyStore) Rename(oldName, newName string) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.MemStore.Rename(oldName, newName)
}

type flakyFile struct {
	File
	s *flakyStore
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.s.trip(); err != nil {
		// Model a torn transient failure: partial progress then error.
		if len(p) > 1 {
			n, _ := f.File.WriteAt(p[:len(p)/2], off)
			return n, err
		}
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.s.trip(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func noSleep(ctx context.Context, d time.Duration) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return nil
}

func TestRetryStoreAbsorbsTransientFaults(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 3, err: Retryable(errors.New("transient"))}
	rs := NewRetryStore(flaky, RetryPolicy{MaxAttempts: 4, Sleep: noSleep})

	f, err := rs.Open("seg", OpenCreate)
	if err != nil {
		t.Fatalf("Open through 3 transient faults: %v", err)
	}
	flaky.fail = 2
	data := []byte("hello retry world")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt through 2 transient faults: %v", err)
	}
	flaky.fail = 1
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt through 1 transient fault: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("readback mismatch: %q != %q", got, data)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := rs.Stats(); st.Retries != 6 || st.Exhausted != 0 {
		t.Fatalf("Stats = %+v, want 6 retries 0 exhausted", rs.Stats())
	}
}

func TestRetryStoreExhaustion(t *testing.T) {
	cause := Retryable(errors.New("always down"))
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: cause}
	rs := NewRetryStore(flaky, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	_, err := rs.Open("seg", OpenCreate)
	if err == nil {
		t.Fatal("Open succeeded against a permanently failing store")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("exhausted error lost its cause: %v", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("exhausted error lost its retryable mark: %v", err)
	}
	if flaky.ops != 3 {
		t.Fatalf("inner store saw %d attempts, want 3", flaky.ops)
	}
	if !strings.Contains(err.Error(), "open: retries exhausted") {
		t.Fatalf("exhausted error does not name the open op: %v", err)
	}
	if st := rs.Stats(); st.Retries != 2 || st.Exhausted != 1 {
		t.Fatalf("Stats = %+v, want 2 retries 1 exhausted", st)
	}
}

func TestRetryStoreFatalNotRetried(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: Fatal(errors.New("disk on fire"))}
	rs := NewRetryStore(flaky, RetryPolicy{MaxAttempts: 5, Sleep: noSleep})
	if _, err := rs.Open("seg", OpenCreate); err == nil {
		t.Fatal("want error")
	}
	if flaky.ops != 1 {
		t.Fatalf("fatal error was retried: %d attempts", flaky.ops)
	}
	// Unmarked unknown errors must also surface immediately.
	flaky.err = errors.New("unclassified")
	flaky.ops = 0
	if _, err := rs.Open("seg2", OpenCreate); err == nil {
		t.Fatal("want error")
	} else if flaky.ops != 1 {
		t.Fatalf("unknown error was retried: %d attempts", flaky.ops)
	}
	// ErrNotExist passes through untouched for errors.Is callers.
	flaky.fail = 0
	if _, err := rs.Open("missing", OpenRead); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing = %v, want ErrNotExist", err)
	}
}

func TestRetryStoreMaxAttemptsOneDisablesRetry(t *testing.T) {
	cause := Retryable(errors.New("transient"))
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1, err: cause}
	rs := NewRetryStore(flaky, RetryPolicy{MaxAttempts: 1, Sleep: noSleep})
	_, err := rs.Open("seg", OpenCreate)
	if err != cause {
		t.Fatalf("MaxAttempts=1 must surface the raw error, got %v", err)
	}
	if st := rs.Stats(); st.Retries != 0 || st.Exhausted != 1 {
		t.Fatalf("Stats = %+v, want 0 retries 1 exhausted", st)
	}
}

func TestRetryStoreCtxBetweenAttempts(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: Retryable(errors.New("transient"))}
	ctx, cancel := context.WithCancel(context.Background())
	rs := NewRetryStore(flaky, RetryPolicy{
		MaxAttempts: 10,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancellation lands during the first backoff
			return CtxErr(ctx)
		},
	})
	_, err := rs.OpenCtx(ctx, "seg", OpenCreate)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled retry loop: err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled retry loop: err = %v, want context.Canceled in chain", err)
	}
	if flaky.ops != 1 {
		t.Fatalf("attempted %d times after cancellation, want 1 (ctx observed between attempts)", flaky.ops)
	}
	if IsRetryable(err) {
		t.Fatal("cancellation must classify fatal")
	}
}

func TestRetryStoreBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 42}
	a := NewRetryStore(NewMemStore(), p)
	b := NewRetryStore(NewMemStore(), p)
	for attempt := 1; attempt <= 12; attempt++ {
		da, db := a.backoff(7, attempt), b.backoff(7, attempt)
		if da != db {
			t.Fatalf("attempt %d: backoff not deterministic: %v != %v", attempt, da, db)
		}
		if da > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, da, p.MaxDelay)
		}
		if da < p.BaseDelay/2 {
			t.Fatalf("attempt %d: backoff %v below base/2", attempt, da)
		}
	}
	// Different seeds should give different jitter somewhere.
	c := NewRetryStore(NewMemStore(), RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 43})
	diff := false
	for attempt := 1; attempt <= 4 && !diff; attempt++ {
		diff = a.backoff(7, attempt) != c.backoff(7, attempt)
	}
	if !diff {
		t.Fatal("seed has no effect on jitter")
	}
}

func TestRetryStoreConformance(t *testing.T) {
	conformance(t, func(t *testing.T) Store {
		return NewRetryStore(NewMemStore(), RetryPolicy{Sleep: noSleep})
	})
}
