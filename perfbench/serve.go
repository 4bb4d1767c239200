package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/serve"
)

// The serve workload: lamassud's handler on loopback TCP, one closed-loop
// client per tenant, each over its own small files. The mount encrypts
// names and replicates every key on 2 of 3 memstores; its block cache
// holds all live data.
const (
	serveTenants  = 2
	serveFiles    = 16 // per tenant
	serveMinBytes = 64 << 10
	serveMaxBytes = 256 << 10
	serveStores   = 3
	serveReplicas = 2
	serveCache    = 4096 // blocks: 16 MiB, above the ~5 MiB live data
	serveAlpha    = 0.3
	spanHeader    = "X-Perfbench-Span"
)

// serveMix is the request mix, as weights per operation class. The
// weights are assumptions, not taken from a published trace; README.md
// ("Why these weights") gives the reasoning for each.
var serveMix = [numOps]int{
	opRand:   35, // ranged 4 KiB GET
	opRead:   15, // whole GET
	opUpdate: 20, // 4 KiB PUT ?offset
	opWrite:  5,  // whole PUT of 64-256 KiB
	opStat:   15, // HEAD
	opList:   10, // GET /v1/list
}

// serveInstance is one running daemon, its stores and its clients.
type serveInstance struct {
	tr      *tracer
	leaves  []*leafStore
	m       *lamassu.Mount
	srv     *serve.Server
	base    string
	http    *http.Client
	stop    context.CancelFunc
	served  chan error
	clients []*serveClient
}

// serveClient is one tenant's closed-loop caller and its model of every
// file it owns, including write-range splices.
type serveClient struct {
	in    *serveInstance
	token string
	g     *gen
	files map[string][]byte
	names []string
}

func tenantToken(t int) string { return fmt.Sprintf("perfbench-token-%d", t) }

// serveInputs generates every tenant's first file contents.
func serveInputs(seed uint64) []map[string][]byte {
	out := make([]map[string][]byte, serveTenants)
	for t := range out {
		g := newGen(seed, uint64(10+t), serveAlpha, 1)
		out[t] = make(map[string][]byte, serveFiles)
		for i := 0; i < serveFiles; i++ {
			out[t][fmt.Sprintf("doc%02d", i)] = g.file(g.size())
		}
	}
	return out
}

// size draws a whole-file size: a block multiple in [serveMinBytes, serveMaxBytes].
func (g *gen) size() int {
	return (serveMinBytes/blockSize + g.rng.IntN((serveMaxBytes-serveMinBytes)/blockSize+1)) * blockSize
}

// setupServe builds the stores, mount and daemon, and preloads every file
// (PUT whole, then GET once as the untimed warm-up).
func setupServe(seed uint64, inputs []map[string][]byte, tr *tracer) (*serveInstance, error) {
	in := &serveInstance{tr: tr, served: make(chan error, 1)}
	stores := make([]lamassu.Storage, serveStores)
	for i := range stores {
		in.leaves = append(in.leaves, newLeaf(backend.NewMemStore(), tr))
		stores[i] = in.leaves[i]
	}
	sharded, err := lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{Replicas: serveReplicas})
	if err != nil {
		return nil, err
	}
	opts := []lamassu.Option{
		lamassu.WithEncryptedNames(), lamassu.WithReplication(serveReplicas), lamassu.WithCache(serveCache),
	}
	if tr != nil {
		opts = append(opts, lamassu.WithLatencyCollection())
	}
	if in.m, err = lamassu.New(sharded, zoneKeys(seed), opts...); err != nil {
		return nil, err
	}
	var cfg bytes.Buffer
	for t := 0; t < serveTenants; t++ {
		fmt.Fprintf(&cfg, "tenant: t%d %s\n", t, tenantToken(t))
	}
	tenants, err := serve.ParseTenants(cfg.Bytes())
	if err != nil {
		return nil, err
	}
	if in.srv, err = serve.New(serve.Config{Mount: in.m, Tenants: tenants}); err != nil {
		return nil, err
	}
	var h http.Handler = in.srv
	if tr != nil {
		h = &tracedHandler{inner: in.srv, tr: tr}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.base = "http://" + lis.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	in.stop = stop
	go func() { in.served <- serve.Graceful(ctx, lis, h, serve.GracefulConfig{DrainTimeout: 5 * time.Second}) }()
	in.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}

	for t := 0; t < serveTenants; t++ {
		c := &serveClient{in: in, token: tenantToken(t), g: newGen(seed, uint64(20+t), serveAlpha, 1),
			files: make(map[string][]byte, serveFiles)}
		for name, data := range inputs[t] {
			c.files[name] = append([]byte(nil), data...)
			c.names = append(c.names, name)
		}
		slices.Sort(c.names)
		for _, name := range c.names {
			if st, _, err := c.req(http.MethodPut, "/v1/files/"+name, nil, c.files[name]); err != nil || st != http.StatusNoContent {
				in.close()
				return nil, fmt.Errorf("preload PUT %s: status %d: %v", name, st, err)
			}
			if st, body, err := c.req(http.MethodGet, "/v1/files/"+name, nil, nil); err != nil || st != http.StatusOK || !bytes.Equal(body, c.files[name]) {
				in.close()
				return nil, fmt.Errorf("preload GET %s: status %d: %v (or content differs)", name, st, err)
			}
		}
		in.clients = append(in.clients, c)
	}
	return in, nil
}

// req sends one request and reads the whole response. Traced, the
// client span's ID travels in a header to the handler wrapper.
func (c *serveClient) req(method, path string, hdr map[string]string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, c.in.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set("Authorization", "Bearer "+c.token)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	id, start := c.in.tr.begin()
	if id != 0 {
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.in.http.Do(r)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.in.tr.end(id, 0, kindClient, start)
	if method == http.MethodHead {
		out = []byte(strconv.FormatInt(resp.ContentLength, 10))
	}
	return resp.StatusCode, out, err
}

// run drives every client concurrently until the deadline (or maxOps
// operations per client, when nonzero).
func (in *serveInstance) run(until time.Time, maxOps int) ([]*ledger, error) {
	ls := make([]*ledger, len(in.clients))
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for i, c := range in.clients {
		ls[i] = newLedger()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.loop(ls[i], until, maxOps)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ls, err
		}
	}
	return ls, nil
}

func (c *serveClient) loop(l *ledger, until time.Time, maxOps int) error {
	total := 0
	for _, w := range serveMix {
		total += w
	}
	for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(until); n++ {
		pick, op := c.g.rng.IntN(total), 0
		for pick >= serveMix[op] {
			pick -= serveMix[op]
			op++
		}
		if err := c.one(l, op); err != nil {
			return err
		}
	}
	return nil
}

// one issues one request of class op and checks its result against the
// model.
func (c *serveClient) one(l *ledger, op int) error {
	name := c.names[c.g.rng.IntN(len(c.names))]
	data := c.files[name]
	path := "/v1/files/" + name
	var (
		hdr     map[string]string
		payload []byte
		off     int64
		method  = http.MethodGet
	)
	switch op {
	case opRand:
		off = int64(c.g.rng.IntN(len(data)/blockSize)) * blockSize
		hdr = map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", off, off+blockSize-1)}
	case opUpdate:
		off = int64(c.g.rng.IntN(len(data)/blockSize)) * blockSize
		payload = c.g.block()
		method, path = http.MethodPut, path+"?offset="+strconv.FormatInt(off, 10)
	case opWrite:
		payload = c.g.file(c.g.size())
		method = http.MethodPut
	case opStat:
		method = http.MethodHead
	case opList:
		path = "/v1/list"
	}
	t := time.Now()
	st, body, err := c.req(method, path, hdr, payload)
	d := time.Since(t)
	var ok bool
	switch op {
	case opRand:
		ok = st == http.StatusPartialContent && bytes.Equal(body, data[off:off+blockSize])
	case opRead:
		ok = st == http.StatusOK && bytes.Equal(body, data)
	case opUpdate, opWrite:
		ok = st == http.StatusNoContent
	case opStat:
		ok = st == http.StatusOK && string(body) == strconv.Itoa(len(data))
	case opList:
		ok = st == http.StatusOK && c.listMatches(body)
	}
	ok = ok && err == nil
	var moved int64
	switch op {
	case opRand, opRead:
		moved = int64(len(body))
	case opUpdate, opWrite:
		moved = int64(len(payload))
	}
	l.add(op, d, moved, ok)
	if !ok {
		return fmt.Errorf("%s op %d on %s: status %d: %v (or result differs from the model)", c.token, op, name, st, err)
	}
	switch op {
	case opUpdate:
		copy(data[off:], payload)
	case opWrite:
		c.files[name] = payload
	}
	return nil
}

// listMatches checks a /v1/list page against the model: exactly the
// client's files, with their sizes.
func (c *serveClient) listMatches(body []byte) bool {
	var page serve.ListPage
	if json.Unmarshal(body, &page) != nil || page.Truncated || len(page.Entries) != len(c.names) {
		return false
	}
	for i, e := range page.Entries {
		if e.Name != c.names[i] || e.Size != int64(len(c.files[e.Name])) {
			return false
		}
	}
	return true
}

func (in *serveInstance) snapshot() snap {
	s := snap{eng: in.m.EngineStats(), cache: in.m.CacheStats(), leaf: sumLeaves(in.leaves)}
	s.rejected = in.srv.Limiter().Stats().Rejected
	return s
}

func (in *serveInstance) volumes() ([]backend.Store, error) {
	out := make([]backend.Store, len(in.leaves))
	for i, l := range in.leaves {
		out[i] = l.inner
	}
	return out, nil
}

func (in *serveInstance) logicalBytes() int64 {
	var n int64
	for _, c := range in.clients {
		for _, d := range c.files {
			n += int64(len(d))
		}
	}
	return n
}

// close stops the daemon, waits for it to drain, and closes the mount.
// The client's idle connections go first: the server would otherwise
// treat a connection the client dialed but never used as in flight.
func (in *serveInstance) close() error {
	in.http.CloseIdleConnections()
	in.stop()
	err := <-in.served
	if cerr := in.m.Close(); err == nil {
		err = cerr
	}
	return err
}

// queuePeak samples the deepest per-shard queue until stop is closed.
func (in *serveInstance) queuePeak(stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		var peak int64
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			for _, s := range in.m.ShardStats() {
				peak = max(peak, s.QueueDepth)
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// tracedHandler wraps *serve.Server: a handler span per request, child of
// the client span named in the request header. The span's ID rides the
// request context, so the leaf calls the request causes become its
// children; request-body reads and response writes become serve_io
// children.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	id, start := h.tr.begin()
	r = r.WithContext(withSpan(r.Context(), id))
	if r.Body != nil {
		r.Body = &ioBody{ReadCloser: r.Body, tr: h.tr, parent: id}
	}
	h.inner.ServeHTTP(&ioWriter{ResponseWriter: w, tr: h.tr, parent: id}, r)
	h.tr.end(id, parent, kindHandler, start)
}

type ioBody struct {
	io.ReadCloser
	tr     *tracer
	parent uint64
}

func (b *ioBody) Read(p []byte) (int, error) {
	id, start := b.tr.begin()
	n, err := b.ReadCloser.Read(p)
	b.tr.end(id, b.parent, kindServeIO, start)
	return n, err
}

type ioWriter struct {
	http.ResponseWriter
	tr     *tracer
	parent uint64
}

func (w *ioWriter) Write(p []byte) (int, error) {
	id, start := w.tr.begin()
	n, err := w.ResponseWriter.Write(p)
	w.tr.end(id, w.parent, kindServeIO, start)
	return n, err
}
