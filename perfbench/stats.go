package main

import (
	"math"
	"sort"
	"time"
)

// Operation classes every workload issues. Each end-to-end latency and
// throughput metric is defined over one class or over all of them.
const (
	opWrite  = iota // whole-file write (WriteFileCtx / PUT)
	opRead          // whole-file read (ReadFileCtx / GET)
	opRand          // 4 KiB read at a random block (ReadAtCtx / ranged GET)
	opUpdate        // 4 KiB write-range at a random block (+ sync)
	opStat          // HEAD
	opList          // directory listing
	numOps
)

// sample is one finished operation.
type sample struct {
	at    float64 // seconds from the caller's start to the operation's end
	ms    float64
	bytes int64 // logical bytes moved; 0 when the operation failed
	op    uint8
}

// ledger is one closed-loop caller's record. Callers never share one.
type ledger struct {
	start   time.Time
	samples []sample
	failed  int64
}

func newLedger() *ledger { return &ledger{start: time.Now()} }

func (l *ledger) add(op int, d time.Duration, bytes int64, ok bool) {
	if !ok {
		l.failed++
		bytes = 0
	}
	l.samples = append(l.samples, sample{
		at: time.Since(l.start).Seconds(), ms: float64(d) / 1e6, bytes: bytes, op: uint8(op),
	})
}

// merge folds src, one ledger per caller, into dst caller by caller.
func merge(dst, src []*ledger) []*ledger {
	for i, l := range src {
		if i == len(dst) {
			dst = append(dst, &ledger{start: l.start})
		}
		dst[i].samples = append(dst[i].samples, l.samples...)
		dst[i].failed += l.failed
	}
	return dst
}

// outcome is the end-to-end result of a timed phase over all callers.
type outcome struct {
	attempted, failed int64
	writeMBps         float64
	readMBps          float64
	randP50, randP90  float64
	reqPerS           float64
	reqP50, reqP90    float64
	updP50, updP90    float64
	// The p99s are reported beside the metrics, not as metrics: on a
	// small shared VM their spread over seeds exceeds any usable bound.
	randP99, reqP99, updP99 float64
	randN, reqN, updN       int
	writtenBytes            int64 // logical bytes written by whole writes and updates
	readBytes               int64 // logical bytes returned by whole and random reads
	movedBytes              int64 // every logical byte moved by the callers
	// Per operation class: caller time spent waiting on the system, and
	// the units it bought (bytes for whole-file transfers, operations
	// otherwise), the terms of traceOverhead.
	busyMs, units [numOps]float64
}

// busyS is the callers' total time spent waiting on the system.
func (o outcome) busyS() float64 {
	var ms float64
	for _, b := range o.busyMs {
		ms += b
	}
	return ms / 1e3
}

// traceOverhead is the share by which tracing lengthens the untraced
// operations, over every class: each class's traced time per unit (a
// byte for whole-file transfers, an operation otherwise) times the units
// the untraced callers got, summed, over the untraced callers' time, minus
// 1. A class one side never issued is left out.
func traceOverhead(plain, traced outcome) float64 {
	var untracedMs, tracedMs float64
	for op := range numOps {
		if plain.units[op] == 0 || traced.units[op] == 0 {
			continue
		}
		untracedMs += plain.busyMs[op]
		tracedMs += plain.units[op] * traced.busyMs[op] / traced.units[op]
	}
	return ratio(tracedMs, untracedMs) - 1
}

// summarize merges the callers' ledgers. Each metric's samples are put
// in time order and cut into up to maxWindows consecutive windows, each
// big enough for the statistic (a p90 needs 100 samples and a p99 1000,
// so that ten lie beyond it); the metric is the median of its per-window values, so a
// burst of noise from outside the benchmark moves a window or two, not
// the result. A rate is logical bytes (or operations) per second of
// caller time spent waiting on the system, times the number of callers,
// so the benchmark's own input generation and checking between calls are
// not counted. The req metrics cover every operation when wholeInReq is
// set, and otherwise leave out the whole-file transfers, whose latency is
// set by the file size and is reported as MB/s instead.
func summarize(ls []*ledger, wholeInReq bool, maxWindows int) outcome {
	var o outcome
	var byOp [numOps][]sample
	var req []sample
	for _, l := range ls {
		o.failed += l.failed
		for _, s := range l.samples {
			o.attempted++
			o.movedBytes += s.bytes
			switch s.op {
			case opWrite, opUpdate:
				o.writtenBytes += s.bytes
			case opRead, opRand:
				o.readBytes += s.bytes
			}
			byOp[s.op] = append(byOp[s.op], s)
			o.busyMs[s.op] += s.ms
			if s.op == opWrite || s.op == opRead {
				o.units[s.op] += float64(s.bytes)
			} else {
				o.units[s.op]++
			}
			if wholeInReq || (s.op != opWrite && s.op != opRead) {
				req = append(req, s)
			}
		}
	}
	callers := float64(len(ls))
	mbps := func(xs []sample) float64 {
		var bytes, ms float64
		for _, s := range xs {
			bytes += float64(s.bytes)
			ms += s.ms
		}
		return callers * bytes / 1e3 / ms
	}
	perS := func(xs []sample) float64 {
		var ms float64
		for _, s := range xs {
			ms += s.ms
		}
		return callers * float64(len(xs)) * 1e3 / ms
	}
	p := func(q float64) func([]sample) float64 {
		return func(xs []sample) float64 {
			ms := make([]float64, len(xs))
			for i, s := range xs {
				ms[i] = s.ms
			}
			return quantile(ms, q)
		}
	}
	w := func(xs []sample, minPer int, stat func([]sample) float64) float64 {
		return windowed(xs, maxWindows, minPer, stat)
	}
	o.writeMBps, o.readMBps = w(byOp[opWrite], 3, mbps), w(byOp[opRead], 3, mbps)
	o.reqPerS = w(req, 100, perS)
	o.randP50, o.randP90 = w(byOp[opRand], 100, p(0.5)), w(byOp[opRand], 100, p(0.9))
	o.reqP50, o.reqP90 = w(req, 100, p(0.5)), w(req, 100, p(0.9))
	o.updP50, o.updP90 = w(byOp[opUpdate], 100, p(0.5)), w(byOp[opUpdate], 100, p(0.9))
	o.randP99, o.reqP99, o.updP99 = w(byOp[opRand], 1000, p(0.99)), w(req, 1000, p(0.99)), w(byOp[opUpdate], 1000, p(0.99))
	o.randN, o.reqN, o.updN = len(byOp[opRand]), len(req), len(byOp[opUpdate])
	return o
}

// windowed puts xs in time order, cuts it into k consecutive windows of
// at least minPer samples each (1 <= k <= maxWindows), and returns the
// median of stat over the windows. Empty input gives NaN.
func windowed(xs []sample, maxWindows, minPer int, stat func([]sample) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].at < xs[j].at })
	k := min(maxWindows, max(1, len(xs)/minPer))
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = stat(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return median(vals)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
