// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop from a single process, checks every byte it
// reads back, and prints the workload's metrics by name with their units;
// the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 two live instances on identical inputs, one
// untraced and one traced, take turns in slices of the run (see
// perLayer), and the metrics are the per-layer ones: spans recorded
// around every benchmark-side call into a layer, the leaf store
// decorator's counters, the engine's own counters with latency
// collection on, and the tracing overhead of the traced slices over the
// untraced ones.
//
// Usage:
//
//	perfbench --workload stream|remote|serve --seed N --seconds S --trace 0|1
//
// See README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/dedupe"
)

// rttBound is how far the measured object-store round trip may stray
// from nominal, as a share of nominal, before the run is flagged. It is
// the bound BENCHMARK.json puts on rand_read_p50_ms.
const rttBound = 0.24

// e2eWindows is the most time windows an end-to-end metric is computed
// over before taking the median (see summarize).
const e2eWindows = 10

// setupRepeats is how many times a --trace 0 run sets the workload up;
// setup_s is the median.
const setupRepeats = 5

// instance is one set-up workload.
type instance interface {
	// run drives the closed loop until the deadline (checked between
	// operations or rounds) or until max operations or rounds (0 = no
	// limit), and returns one ledger per caller.
	run(until time.Time, max int) ([]*ledger, error)
	snapshot() snap
	// volumes returns the backing stores as the downstream dedup
	// controller sees them.
	volumes() ([]backend.Store, error)
	// logicalBytes is the live logical data the volumes hold.
	logicalBytes() int64
	close() error
}

// snap holds the counters the per-layer metrics difference.
type snap struct {
	eng      lamassu.EngineStats
	cache    lamassu.CacheStats
	leaf     leafTotals
	srv      objstore.ServerStats
	rejected int64
}

func (s snap) srvRequests() int64 {
	r := s.srv
	return r.Gets + r.Puts + r.Parts + r.Completes + r.Aborts + r.Heads + r.Lists + r.Deletes + r.Copies
}

// workload is one named workload: its data shape and how to build it.
type workload struct {
	alpha, ratio float64
	rtt          time.Duration
	wholeInReq   bool // whether the req metrics count whole-file transfers
	// prepare generates the inputs (not part of set-up time) and returns
	// the set-up function; tr is nil for an untraced instance.
	prepare func(seed uint64) func(tr *tracer) (instance, error)
}

func mountWorkload(c *mountConfig) workload {
	return workload{alpha: c.alpha, ratio: c.ratio, rtt: c.rtt, prepare: func(seed uint64) func(*tracer) (instance, error) {
		g, slots := c.inputs(seed)
		return func(tr *tracer) (instance, error) { return c.setup(seed, g, slots, tr) }
	}}
}

var workloads = map[string]workload{
	"stream": mountWorkload(&streamConfig),
	"remote": mountWorkload(&remoteConfig),
	"serve": {alpha: serveAlpha, ratio: 1, wholeInReq: true, prepare: func(seed uint64) func(*tracer) (instance, error) {
		inputs := serveInputs(seed)
		return func(tr *tracer) (instance, error) { return setupServe(seed, inputs, tr) }
	}},
}

// zoneKeys derives the mount's key pair from the seed.
func zoneKeys(seed uint64) lamassu.KeyPair {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	b[8] = 'i'
	inner := sha256.Sum256(b[:])
	b[8] = 'o'
	outer := sha256.Sum256(b[:])
	keys, err := lamassu.KeysFromBytes(inner[:], outer[:])
	if err != nil {
		panic(err)
	}
	return keys
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: stream, remote or serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds)
	} else {
		res, err = perLayer(w, *name, *seed, *seconds)
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			err = errors.Join(err, fmt.Errorf("metric %s is not a number", k))
		}
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		for k, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				res.Metrics[k] = metric{0, v.Unit}
			}
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("# %-32s %14.6g %s (%d of %d operations failed or mismatched)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// calibrate measures the object server's effective per-request round
// trip (the p50 of 200 HEADs on a server with the workload's link) and
// flags a link that strays from nominal by more than rttBound.
func calibrate(rtt time.Duration) float64 {
	if rtt == 0 {
		return 0
	}
	srv := objstore.NewMemserver(objstore.ServerParams{RTT: rtt}, nil)
	if err := srv.Put(context.Background(), "probe", []byte("x")); err != nil {
		panic(err)
	}
	ms := make([]float64, 200)
	for i := range ms {
		t := time.Now()
		if _, err := srv.Head(context.Background(), "probe"); err != nil {
			panic(err)
		}
		ms[i] = float64(time.Since(t)) / 1e6
	}
	eff := median(ms)
	nominal := float64(rtt) / 1e6
	if math.Abs(eff-nominal)/nominal > rttBound {
		fmt.Fprintf(os.Stderr, "perfbench: FLAG: effective object-store RTT %.3f ms strays from nominal %.3f ms by more than %.0f%%\n",
			eff, nominal, 100*rttBound)
	}
	fmt.Printf("# objstore link: nominal RTT %.3f ms, effective %.3f ms (p50 of %d requests)\n", nominal, eff, len(ms))
	return eff
}

// endToEnd sets the workload up setupRepeats times (setup_s is the
// median), then runs it untraced for the given seconds.
func endToEnd(w workload, seed uint64, seconds float64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	calibrate(w.rtt)
	var (
		in    instance
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return res, err
			}
		}
		setup := w.prepare(seed)
		runtime.GC()
		t := time.Now()
		var err error
		if in, err = setup(nil); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	before := in.snapshot()
	ls, runErr := in.run(time.Now().Add(time.Duration(seconds*float64(time.Second))), 0)
	after := in.snapshot()
	out := summarize(ls, w.wholeInReq, e2eWindows)
	res.Attempted, res.Failed = out.attempted, out.failed
	rep, err := scan(in)
	err = errors.Join(runErr, err, in.close())

	var wire int64
	if w.rtt > 0 {
		wire = (after.srv.BytesIn - before.srv.BytesIn) + (after.srv.BytesOut - before.srv.BytesOut)
	} else {
		wire = (after.leaf.bytesRead - before.leaf.bytesRead) + (after.leaf.bytesWritten - before.leaf.bytesWritten)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(times), "s")
	put("write_MBps", out.writeMBps, "MB/s")
	put("read_MBps", out.readMBps, "MB/s")
	put("rand_read_p50_ms", out.randP50, "ms")
	put("rand_read_p90_ms", out.randP90, "ms")
	put("req_per_s", out.reqPerS, "1/s")
	put("req_p50_ms", out.reqP50, "ms")
	put("req_p90_ms", out.reqP90, "ms")
	put("update_p50_ms", out.updP50, "ms")
	put("update_p90_ms", out.updP90, "ms")
	put("stored_per_logical", ratio(float64(rep.BytesAfter), float64(rep.logical)), "ratio")
	put("wire_per_logical", ratio(float64(wire), float64(out.movedBytes)), "ratio")
	fmt.Printf("# samples: %d random reads (p99 %.4g ms), %d updates (p99 %.4g ms), %d req (p99 %.4g ms)\n",
		out.randN, out.randP99, out.updN, out.updP99, out.reqN, out.reqP99)
	fmt.Printf("# setup_s samples %v; stored_per_logical base: %d bytes after dedup / %d logical; wire_per_logical base: %d wire bytes / %d logical bytes moved\n",
		times, rep.BytesAfter, rep.logical, wire, out.movedBytes)
	return res, err
}

// volumeReport is the downstream dedup controller's view: every backing
// store scanned as its own volume, summed.
type volumeReport struct {
	dedupe.Report
	logical int64
}

func scan(in instance) (volumeReport, error) {
	vols, err := in.volumes()
	if err != nil {
		return volumeReport{}, err
	}
	eng, err := dedupe.NewEngine(blockSize)
	if err != nil {
		return volumeReport{}, err
	}
	rep := volumeReport{logical: in.logicalBytes()}
	for _, v := range vols {
		r, err := eng.Scan(v)
		if err != nil {
			return rep, err
		}
		rep.Files += r.Files
		rep.TotalBlocks += r.TotalBlocks
		rep.UniqueBlocks += r.UniqueBlocks
		rep.BytesBefore += r.BytesBefore
		rep.BytesAfter += r.BytesAfter
	}
	return rep, nil
}

// traceSlices is how many alternating untraced and traced slices a
// --trace 1 run is cut into.
const traceSlices = 8

// perLayer runs the seconds in alternating untraced and traced slices and
// derives the per-layer metrics from the traced ones.
func perLayer(w workload, name string, seed uint64, seconds float64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	rttEff := calibrate(w.rtt)

	// Two live instances on identical inputs, one untraced and one
	// traced, take turns in traceSlices slices ordered untraced, traced,
	// traced, untraced (repeated), so that drift over the run falls on
	// both alike. The untraced slices give the overhead baseline and the
	// allocation counts.
	plainIn, err := w.prepare(seed)(nil)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	in, err := w.prepare(seed)(tr)
	if err != nil {
		return res, errors.Join(fmt.Errorf("traced set-up: %w", err), plainIn.close())
	}
	tr.reset()
	var peak <-chan int64
	stopPeak := make(chan struct{})
	if si, ok := in.(*serveInstance); ok {
		peak = si.queuePeak(stopPeak)
	}
	slice := time.Duration(seconds / traceSlices * float64(time.Second))
	var (
		plainLs, tracedLs []*ledger
		mallocs, allocB   uint64
		runErr            error
	)
	before := in.snapshot()
	for i := 0; i < traceSlices && runErr == nil; i++ {
		var ls []*ledger
		if i%4 == 0 || i%4 == 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ls, runErr = plainIn.run(time.Now().Add(slice), 0)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			allocB += m1.TotalAlloc - m0.TotalAlloc
			plainLs = merge(plainLs, ls)
		} else {
			ls, runErr = in.run(time.Now().Add(slice), 0)
			tracedLs = merge(tracedLs, ls)
		}
	}
	after := in.snapshot()
	close(stopPeak)
	var queuePeak int64
	if peak != nil {
		queuePeak = <-peak
	}
	plain, traced := summarize(plainLs, w.wholeInReq, 1), summarize(tracedLs, w.wholeInReq, 1)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	rep, scanErr := scan(in)
	if err := errors.Join(runErr, scanErr, plainIn.close(), in.close()); err != nil {
		return res, err
	}
	sum := tr.summarize()
	if err := tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.csv", name, seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}

	floor := measureFloor(newGen(seed, 99, w.alpha, w.ratio).file(1<<20), w.ratio > 1)
	floorS := floor.seconds(traced.writtenBytes, traced.readBytes)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	d := func(f func(snap) int64) float64 { return float64(f(after) - f(before)) }
	mib := float64(traced.movedBytes) / (1 << 20)
	plainMiB := float64(plain.movedBytes) / (1 << 20)

	put("trace.overhead", traceOverhead(plain, traced), "ratio")
	put("trace.spans", float64(sum.spans), "count")

	put("cryptoutil.floor_s", floorS, "s")
	put("cryptoutil.floor_write_MBps", floor.writeMBps, "MB/s")
	put("cryptoutil.floor_read_MBps", floor.readMBps, "MB/s")
	put("core.self_s", sum.selfS["core"], "s")
	put("core.floor_ratio", ratio(sum.selfS["core"], floorS), "ratio")
	put("core.logical_MiB", mib, "MiB")
	put("core.alloc_base_MiB", plainMiB, "MiB")
	put("core.allocs_per_MiB", ratio(float64(mallocs), plainMiB), "count/MiB")
	put("core.alloc_bytes_per_MiB", ratio(float64(allocB), plainMiB), "B/MiB")
	put("core.write_runs", d(func(s snap) int64 { return s.eng.WriteRuns }), "count")
	put("core.read_runs", d(func(s snap) int64 { return s.eng.ReadRuns }), "count")
	put("core.prefetches", d(func(s snap) int64 { return s.eng.Prefetches }), "count")
	put("core.compressed_blocks", d(func(s snap) int64 { return s.eng.CompressedBlocks }), "count")
	put("core.raw_escapes", d(func(s snap) int64 { return s.eng.RawEscapes }), "count")
	slabReq := d(func(s snap) int64 { return s.eng.SlabHits + s.eng.SlabMisses })
	put("core.slab_requests", slabReq, "count")
	put("core.slab_hit_ratio", ratio(d(func(s snap) int64 { return s.eng.SlabHits }), slabReq), "ratio")
	put("core.io_peak_inflight", float64(after.eng.IOPeakInFlight), "count")
	put("core.io_window", float64(after.eng.IOWindow), "count")
	lookups := d(func(s snap) int64 { return s.cache.Hits + s.cache.Misses })
	put("core.cache_lookups", lookups, "count")
	put("core.cache_hit_ratio", ratio(d(func(s snap) int64 { return s.cache.Hits }), lookups), "ratio")

	lf := d(func(s snap) int64 { return s.leaf.reads + s.leaf.writes })
	put("backend.reads", d(func(s snap) int64 { return s.leaf.reads }), "count")
	put("backend.writes", d(func(s snap) int64 { return s.leaf.writes }), "count")
	put("backend.syncs", d(func(s snap) int64 { return s.leaf.syncs }), "count")
	put("backend.opens", d(func(s snap) int64 { return s.leaf.opens }), "count")
	put("backend.bytes_per_op", ratio(d(func(s snap) int64 { return s.leaf.bytesRead + s.leaf.bytesWritten }), lf), "B")
	put("backend.busy_s", after.leaf.busyS-before.leaf.busyS, "s")

	reqs := d(snap.srvRequests)
	put("objstore.requests", reqs, "count")
	put("objstore.requests_per_MiB", ratio(reqs, mib), "1/MiB")
	var amp, getsPerRead float64
	if mi, ok := in.(*mountInstance); ok && mi.randReturned > 0 {
		amp = ratio(float64(mi.randFetched), float64(mi.randReturned))
		getsPerRead = ratio(float64(mi.randGets), float64(mi.randReturned/blockSize))
	}
	put("objstore.read_amplification", amp, "ratio")
	put("objstore.gets_per_rand_read", getsPerRead, "ratio")
	put("objstore.rtt_eff_ms", rttEff, "ms")
	put("objstore.rtt_nominal_ms", float64(w.rtt)/1e6, "ms")

	var skew float64
	if n := len(after.leaf.busyPerLeafS); n > 1 {
		var total, most float64
		for i := range after.leaf.busyPerLeafS {
			b := after.leaf.busyPerLeafS[i] - before.leaf.busyPerLeafS[i]
			total += b
			most = max(most, b)
		}
		skew = ratio(most, total/float64(n))
	}
	put("shard.skew", skew, "ratio")
	put("shard.replica_writes", d(func(s snap) int64 { return s.eng.ReplicaWrites }), "count")
	put("shard.queue_peak", float64(queuePeak), "count")

	put("serve.handler_p50_ms", zeroNaN(median(sum.handleMs)), "ms")
	put("serve.self_s", sum.selfS["serve"], "s")
	put("serve.rejected", d(func(s snap) int64 { return s.rejected }), "count")
	put("transport.wire_p50_ms", zeroNaN(median(sum.wireMs)), "ms")
	put("transport.self_s", sum.selfS["transport"], "s")

	put("dedupe.total_blocks", float64(rep.TotalBlocks), "count")
	put("dedupe.unique_blocks", float64(rep.UniqueBlocks), "count")

	fmt.Printf("# untraced slices: %d ops in %.3f s of caller time; traced slices: %d ops in %.3f s, %d spans\n",
		plain.attempted, plain.busyS(), traced.attempted, traced.busyS(), sum.spans)
	fmt.Printf("# crypto floor (1 core): write %.1f MB/s, read %.1f MB/s; floor_s base: %d bytes written, %d read\n",
		floor.writeMBps, floor.readMBps, traced.writtenBytes, traced.readBytes)
	return res, nil
}

// zeroNaN maps the NaN of an empty sample (a layer the workload does not
// have) to 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
