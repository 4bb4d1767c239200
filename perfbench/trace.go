package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, one per seam the benchmark times from outside. Each kind's
// self time is credited to one layer (see layerOf).
const (
	kindClient  = iota // benchmark HTTP client round trip (serve)
	kindHandler        // http.Handler wrapper around *serve.Server
	kindServeIO        // request-body reads and response writes inside the handler
	kindMount          // one Mount/File *Ctx call made by the benchmark
	kindLeaf           // one call into the leaf backend.Store/File decorator
	numKinds
)

var kindNames = [numKinds]string{"client", "handler", "serve_io", "mount", "leaf"}

// layerOf names the layer a span kind's self time belongs to. The serve
// handler's Mount calls have no outside seam, so on serve the handler's
// self time (minus its own body/response I/O and the leaf calls below it)
// is the lamassu facade, core, namecrypt and the shard router together:
// it is credited to core, like the Mount spans of stream and remote.
var layerOf = [numKinds]string{"transport", "core", "serve", "core", "backend"}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent uint64
	kind       uint8
	start, end int64
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: begin returns zero and end records nothing, so the
// benchmark's own call sites are identical in both runs.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin allocates a span ID and reads the clock.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.epoch))
}

// end records the span begun with id at start and returns its duration.
func (t *tracer) end(id, parent uint64, kind int, start int64) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, kind: uint8(kind), start: start, end: now})
	t.mu.Unlock()
	return time.Duration(now - start)
}

// reset drops the spans recorded so far (those of the set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

type spanKey struct{}

// withSpan makes id the parent of every span recorded under ctx.
func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanOf returns the span ID riding ctx, or 0.
func spanOf(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// traceSummary is what the per-layer metrics need from the spans.
type traceSummary struct {
	spans    int
	selfS    map[string]float64 // layer -> summed self time, seconds
	wireMs   []float64          // per request: client span minus its handler span
	handleMs []float64          // per request: handler span
}

// summarize computes self times: a span's duration minus the part of its
// interval that its child spans cover (children may overlap each other).
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make(map[uint64][]int)
	for i, s := range spans {
		if _, ok := byID[s.parent]; ok {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	sum := traceSummary{spans: len(spans), selfS: make(map[string]float64)}
	var iv [][2]int64
	for _, s := range spans {
		dur := s.end - s.start
		iv = iv[:0]
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := dur - covered(iv)
		sum.selfS[layerOf[s.kind]] += float64(self) / 1e9
		if s.kind == kindHandler {
			h := float64(dur) / 1e6
			sum.handleMs = append(sum.handleMs, h)
			if p, ok := byID[s.parent]; ok && spans[p].kind == kindClient {
				sum.wireMs = append(sum.wireMs, float64(spans[p].end-spans[p].start)/1e6-h)
			}
		}
	}
	return sum
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// write dumps the spans as CSV (id,parent,kind,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,kind,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, kindNames[s.kind], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
