package lamassu

// Hedged reads — the public face of the tail-latency-tolerance layer.
//
// WithHedgedReads(policy) interposes a hedging wrapper directly on
// every physical backing store (innermost, beneath WithRetry and name
// encryption): when a backend read has been outstanding longer than an
// adaptive delay — a high quantile of that store's observed read
// latency, scaled up so body-latency reads never trigger it — a
// duplicate of the same ranged read is issued, the first usable
// response wins, and the loser is canceled through its context.
// Hedging is strictly read-only (a duplicated read is idempotent;
// writes are never hedged) and strictly additive: it changes neither
// the bytes read nor the §2.4 commit protocol, only which of two
// identical requests supplies them. Because the wrapper sits beneath
// WithRetry, a read whose primary AND hedge both fail surfaces one
// classified error that the retry layer then handles as usual.

import (
	"sync"
	"time"

	"lamassu/internal/backend/hedge"
)

// HedgePolicy tunes the hedged-read wrapper enabled by WithHedgedReads.
// The zero value selects the adaptive defaults noted on each field.
type HedgePolicy struct {
	// Delay, when nonzero, fixes the hedge delay: a second read is
	// issued whenever the first has been outstanding this long. Zero
	// (the default) selects the adaptive delay — a high quantile of the
	// store's observed read latency, recomputed continuously — which
	// tracks the store instead of needing manual tuning.
	Delay time.Duration
	// Quantile is the observed-latency quantile the adaptive delay is
	// derived from (the delay is the quantile scaled by a safety
	// factor). 0 selects 0.95; values outside (0,1) select the default.
	Quantile float64
	// MinDelay floors the adaptive delay: when the computed delay falls
	// below it the store is fast enough that hedging would only add
	// load, and hedging disarms entirely (reads stay on the zero-
	// allocation fast path). 0 selects 200µs.
	MinDelay time.Duration
}

// backendPolicy lowers the public policy onto the backend hedging
// layer.
func (p HedgePolicy) backendPolicy() hedge.Policy {
	return hedge.Policy{Delay: p.Delay, Quantile: p.Quantile, MinDelay: p.MinDelay}
}

// registry collects the per-store wrappers of one kind a mount created
// — hedging or retry, one per physical store — so EngineStats and
// HedgedReadStats can aggregate the counters the wrappers own. Stores
// join at mount time and when an online rebalance wraps a store new
// to the deployment. All methods are nil-safe (a mount without the
// wrapper carries a nil registry).
type registry[T any] struct {
	mu     sync.Mutex
	stores []T
}

func (r *registry[T]) add(s T) T {
	if r != nil {
		r.mu.Lock()
		r.stores = append(r.stores, s)
		r.mu.Unlock()
	}
	return s
}

func (r *registry[T]) snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.stores...)
}

// HedgedReadStats is one hedged store's counters: how many reads it
// served, how many grew a hedge, how often the hedge won, and the
// observed backend read-latency quantiles its adaptive delay is
// derived from.
type HedgedReadStats struct {
	// Reads counts backend reads issued through the wrapper; Hedges
	// counts the duplicate reads its delay triggered; HedgeWins counts
	// hedges whose response beat the primary's.
	Reads, Hedges, HedgeWins int64
	// P50 and P99 are the store's observed read-latency quantiles over
	// a sliding window of recent reads (zero until enough samples).
	P50, P99 time.Duration
}

// HedgedReadStats reports per-store hedged-read counters, one entry
// per physical store the mount hedges over (a sharded deployment has
// one per shard); nil unless the mount was created with
// WithHedgedReads.
func (m *Mount) HedgedReadStats() []HedgedReadStats {
	stores := m.hedges.snapshot()
	if len(stores) == 0 {
		return nil
	}
	out := make([]HedgedReadStats, len(stores))
	for i, s := range stores {
		st := s.ReadStats()
		out[i] = HedgedReadStats{
			Reads:     st.Reads,
			Hedges:    st.Hedges,
			HedgeWins: st.HedgeWins,
			P50:       st.P50,
			P99:       st.P99,
		}
	}
	return out
}
