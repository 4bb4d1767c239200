// Package metrics implements the latency-breakdown instrumentation
// used for the paper's Figure 9: time spent on the read and write
// paths is divided into five categories — Encrypt, Decrypt, GetCEKey,
// I/O and Misc — where GetCEKey is dominated by the SHA-256 block
// hash.
//
// A Recorder accumulates per-category wall time and a high-level
// operation count, from which per-op latency follows. It keeps nothing
// else: the engine's counters (backend calls, runs, cache and slab
// traffic, retries, hedges) live as plain atomics in the layer that
// owns them and are live whether or not a Recorder is attached.
// Recording into a nil *Recorder is a no-op, so the hot path can carry
// an optional recorder without branching at every call site.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Category labels one slice of the latency breakdown.
type Category int

// Categories, matching the paper's Figure 9 legend.
const (
	Encrypt Category = iota
	Decrypt
	GetCEKey
	IO
	Misc
	numCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Encrypt:
		return "Encrypt"
	case Decrypt:
		return "Decrypt"
	case GetCEKey:
		return "GetCEKey"
	case IO:
		return "I/O"
	case Misc:
		return "Misc."
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{Encrypt, Decrypt, GetCEKey, IO, Misc}
}

// Recorder accumulates time per category. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Recorder struct {
	total [numCategories]atomic.Int64 // nanoseconds
	ops   atomic.Int64
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Add charges d to category c.
func (r *Recorder) Add(c Category, d time.Duration) {
	if r == nil {
		return
	}
	r.total[c].Add(int64(d))
}

// Time runs f and charges its wall time to category c.
func (r *Recorder) Time(c Category, f func()) {
	if r == nil {
		f()
		return
	}
	start := time.Now()
	f()
	r.Add(c, time.Since(start))
}

// Start returns the current instant for use with Stop; the pair avoids
// a closure on hot paths:
//
//	t := rec.Start()
//	... work ...
//	rec.Stop(metrics.Encrypt, t)
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop charges the time since start (from Start) to category c.
func (r *Recorder) Stop(c Category, start time.Time) {
	if r == nil {
		return
	}
	r.Add(c, time.Since(start))
}

// CountOp increments the high-level operation counter (one per
// read/write request), used to compute per-op latency.
func (r *Recorder) CountOp() {
	if r == nil {
		return
	}
	r.ops.Add(1)
}

// Breakdown is an immutable snapshot of a Recorder.
type Breakdown struct {
	Total [numCategories]time.Duration
	Ops   int64
}

// Snapshot returns the current totals. Each value is read atomically;
// a snapshot taken under concurrent recording may split one operation's
// categories across two snapshots.
func (r *Recorder) Snapshot() Breakdown {
	var b Breakdown
	if r == nil {
		return b
	}
	for c := range b.Total {
		b.Total[c] = time.Duration(r.total[c].Load())
	}
	b.Ops = r.ops.Load()
	return b
}

// Reset zeroes the recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for c := range r.total {
		r.total[c].Store(0)
	}
	r.ops.Store(0)
}

// Sum returns the total time across all categories.
func (b Breakdown) Sum() time.Duration {
	var s time.Duration
	for _, d := range b.Total {
		s += d
	}
	return s
}

// Fraction returns category c's share of the total (0 if empty).
func (b Breakdown) Fraction(c Category) float64 {
	sum := b.Sum()
	if sum == 0 {
		return 0
	}
	return float64(b.Total[c]) / float64(sum)
}

// PerOp returns the mean per-operation latency of category c, using
// the high-level op counter.
func (b Breakdown) PerOp(c Category) time.Duration {
	if b.Ops == 0 {
		return 0
	}
	return b.Total[c] / time.Duration(b.Ops)
}

// String formats the breakdown as a one-line summary sorted by share,
// e.g. "GetCEKey 58.1% | Encrypt 22.0% | I/O 12.3% | ...".
func (b Breakdown) String() string {
	type row struct {
		c Category
		f float64
	}
	rows := make([]row, 0, int(numCategories))
	for _, c := range Categories() {
		rows = append(rows, row{c, b.Fraction(c)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].f > rows[j].f })
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", r.c, r.f*100))
	}
	return strings.Join(parts, " | ")
}
