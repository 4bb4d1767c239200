package lamassu

// Retry policy — the public face of the backend fault-tolerance layer.
//
// WithRetry(policy) interposes a retrying wrapper between the engine
// and the backing store: backend operations that fail with a
// RETRYABLE error (see IsRetryable) are re-issued with capped
// exponential backoff and deterministic jitter, invisibly to the
// commit protocol. Because every backend operation Lamassu issues is
// idempotent — a retried write rewrites the identical bytes at the
// identical offset — a retry is indistinguishable from the §2.4
// crash-cut-then-resume path, so enabling retries never weakens the
// crash-consistency model. Fatal errors (missing files, integrity
// failures, cancellation) surface immediately; in particular a
// context cancellation is never retried away — it cuts the loop, the
// operation reports IsCanceled, and the standard crash-cut recovery
// applies.

import (
	"time"

	"lamassu/internal/backend"
)

// RetryPolicy tunes the retrying store wrapper enabled by WithRetry.
// The zero value selects the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of times a backend operation is
	// issued (first try included) before its last retryable error
	// surfaces to the caller. 0 selects 4; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-issue (0 selects
	// 1ms). Successive re-issues double it.
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff (0 selects 64× BaseDelay).
	MaxDelay time.Duration
	// Seed perturbs the deterministic backoff jitter; runs with the
	// same seed observe identical schedules.
	Seed uint64
}

// backendPolicy lowers the public policy onto the backend layer.
func (p RetryPolicy) backendPolicy() backend.RetryPolicy {
	return backend.RetryPolicy{MaxAttempts: p.MaxAttempts, BaseDelay: p.BaseDelay, MaxDelay: p.MaxDelay, Seed: p.Seed}
}
