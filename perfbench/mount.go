package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
)

// mountConfig shapes a workload that drives an in-process Mount from one
// closed-loop caller: stream (memstore leaf) and remote (object store).
// Each round rewrites one of slots files whole, applies updates 4 KiB
// write-ranges to it, reads it back whole and makes randReads 4 KiB reads
// at random blocks of it. The round shapes are assumptions, reasoned in
// README.md ("Why these weights").
type mountConfig struct {
	fileBytes int
	slots     int
	alpha     float64
	ratio     float64       // target compression ratio of the data; 1 = incompressible
	randReads int           // per round
	updates   int           // per round
	rtt       time.Duration // object-store round trip; 0 selects the memstore leaf
	compress  bool
	window    int // I/O window; 0 = unwindowed
	cache     int // blocks; 0 = off
	readahead int // blocks; 0 = off
}

var streamConfig = mountConfig{
	fileBytes: 16 << 20, slots: 4, alpha: 0.3, ratio: 1,
	randReads: 256, updates: 64,
}

// remoteCache is the remote mount's block cache, in blocks; the files are
// 8x larger, so the random reads' working set does not fit.
const remoteCache = 32

var remoteConfig = mountConfig{
	fileBytes: 1 << 20, slots: 2, alpha: 0.2, ratio: 2,
	randReads: 192, updates: 96, rtt: time.Millisecond,
	compress: true, window: 32, cache: remoteCache, readahead: 32,
}

// mountInstance is one set-up mount and its inputs.
type mountInstance struct {
	cfg   *mountConfig
	tr    *tracer
	leaf  *leafStore
	mem   backend.Store       // the memstore under the leaf (stream)
	srv   *objstore.Memserver // the object server under the leaf (remote)
	m     *lamassu.Mount
	g     *gen
	slots [][]byte
	round int

	// Random-phase object-server traffic, for read amplification.
	randGets, randFetched, randReturned int64
}

// inputs generates the first content of every slot; it is not part of
// set-up time.
func (c *mountConfig) inputs(seed uint64) (*gen, [][]byte) {
	g := newGen(seed, 1, c.alpha, c.ratio)
	slots := make([][]byte, c.slots)
	for i := range slots {
		slots[i] = g.file(c.fileBytes)
	}
	return g, slots
}

// setup builds the store stack and mount and preloads every slot (written
// whole and read back once, the untimed warm-up).
func (c *mountConfig) setup(seed uint64, g *gen, slots [][]byte, tr *tracer) (*mountInstance, error) {
	in := &mountInstance{cfg: c, tr: tr, g: g, slots: slots}
	var leafInner backend.Store
	if c.rtt > 0 {
		in.srv = objstore.NewMemserver(objstore.ServerParams{RTT: c.rtt}, nil)
		leafInner = objstore.New(in.srv)
	} else {
		in.mem = backend.NewMemStore()
		leafInner = in.mem
	}
	in.leaf = newLeaf(leafInner, tr)
	var opts []lamassu.Option
	if c.compress {
		opts = append(opts, lamassu.WithCompression())
	}
	if c.window > 0 {
		opts = append(opts, lamassu.WithIOWindow(c.window))
	}
	if c.cache > 0 {
		opts = append(opts, lamassu.WithCache(c.cache))
	}
	if c.readahead > 0 {
		opts = append(opts, lamassu.WithReadahead(c.readahead))
	}
	if tr != nil {
		opts = append(opts, lamassu.WithLatencyCollection())
	}
	m, err := lamassu.New(in.leaf, zoneKeys(seed), opts...)
	if err != nil {
		return nil, err
	}
	in.m = m
	ctx := context.Background()
	for i, data := range slots {
		if err := m.WriteFileCtx(ctx, slotName(i), data); err != nil {
			return nil, err
		}
		got, err := m.ReadFileCtx(ctx, slotName(i))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, data) {
			return nil, fmt.Errorf("preload: %s read back differs from what was written", slotName(i))
		}
	}
	return in, nil
}

func slotName(i int) string { return fmt.Sprintf("f%02d", i) }

// call times one Mount call as a closed-loop operation and, traced, as a
// span whose ID rides the call's context down to the leaf.
func (in *mountInstance) call(op func(ctx context.Context) error) (time.Duration, error) {
	id, start := in.tr.begin()
	ctx := withSpan(context.Background(), id)
	t := time.Now()
	err := op(ctx)
	d := time.Since(t)
	in.tr.end(id, 0, kindMount, start)
	return d, err
}

// run executes rounds until the deadline passes (checked between rounds)
// or maxRounds rounds have run (0 = no limit).
func (in *mountInstance) run(until time.Time, maxRounds int) ([]*ledger, error) {
	l := newLedger()
	c := in.cfg
	buf := make([]byte, blockSize)
	got := make([]byte, c.fileBytes)
	nBlocks := c.fileBytes / blockSize
	for r := 0; (maxRounds == 0 || r < maxRounds) && time.Now().Before(until); r++ {
		s := in.round % c.slots
		in.round++
		name, data := slotName(s), in.g.file(c.fileBytes)
		in.slots[s] = data

		d, err := in.call(func(ctx context.Context) error { return in.m.WriteFileCtx(ctx, name, data) })
		l.add(opWrite, d, int64(len(data)), err == nil)
		if err != nil {
			return []*ledger{l}, fmt.Errorf("write %s: %w", name, err)
		}

		for u := 0; u < c.updates; u++ {
			off := int64(in.g.rng.IntN(nBlocks)) * blockSize
			p := in.g.block()
			d, err := in.call(func(ctx context.Context) error { return update(ctx, in.m, name, p, off) })
			l.add(opUpdate, d, blockSize, err == nil)
			if err != nil {
				return []*ledger{l}, fmt.Errorf("update %s at %d: %w", name, off, err)
			}
			copy(data[off:], p)
		}

		want := sha256.Sum256(data)
		d, err = in.call(func(ctx context.Context) error { return readWhole(ctx, in.m, name, got) })
		ok := err == nil && sha256.Sum256(got) == want
		l.add(opRead, d, int64(len(got)), ok)
		if !ok {
			return []*ledger{l}, fmt.Errorf("read %s: %v (or content differs from what was written)", name, err)
		}

		if err := in.randomReads(l, name, data, buf, nBlocks); err != nil {
			return []*ledger{l}, err
		}
	}
	return []*ledger{l}, nil
}

// readWhole reads the whole file into p, which is exactly its size: what
// ReadFileCtx does, into the caller's buffer instead of a new one, so the
// benchmark adds no garbage of its own to the engine's.
func readWhole(ctx context.Context, m *lamassu.Mount, name string, p []byte) error {
	f, err := m.OpenCtx(ctx, name)
	if err != nil {
		return err
	}
	if n, err := f.ReadAtCtx(ctx, p, 0); n != len(p) {
		_ = f.CloseCtx(ctx)
		return fmt.Errorf("read %d of %d bytes: %w", n, len(p), err)
	}
	return f.CloseCtx(ctx)
}

// update is one 4 KiB write-range: open, write, sync, close.
func update(ctx context.Context, m *lamassu.Mount, name string, p []byte, off int64) error {
	f, err := m.OpenRWCtx(ctx, name)
	if err != nil {
		return err
	}
	if _, err := f.WriteAtCtx(ctx, p, off); err != nil {
		_ = f.CloseCtx(ctx)
		return err
	}
	if err := f.SyncCtx(ctx); err != nil {
		_ = f.CloseCtx(ctx)
		return err
	}
	return f.CloseCtx(ctx)
}

func (in *mountInstance) randomReads(l *ledger, name string, data, buf []byte, nBlocks int) error {
	f, err := in.m.OpenCtx(context.Background(), name)
	if err != nil {
		return err
	}
	defer f.Close()
	var before objstore.ServerStats
	if in.srv != nil {
		before = in.srv.Stats()
	}
	for i := 0; i < in.cfg.randReads; i++ {
		off := int64(in.g.rng.IntN(nBlocks)) * blockSize
		var n int
		d, err := in.call(func(ctx context.Context) (err error) { n, err = f.ReadAtCtx(ctx, buf, off); return err })
		ok := err == nil && n == blockSize && bytes.Equal(buf, data[off:off+blockSize])
		l.add(opRand, d, int64(n), ok)
		if !ok {
			return fmt.Errorf("read %s at %d: %v (or content differs from what was written)", name, off, err)
		}
	}
	if in.srv != nil {
		after := in.srv.Stats()
		in.randGets += after.Gets - before.Gets
		in.randFetched += after.BytesOut - before.BytesOut
		in.randReturned += int64(in.cfg.randReads) * blockSize
	}
	return nil
}

// snapshot reads every counter the per-layer metrics difference.
func (in *mountInstance) snapshot() snap {
	s := snap{eng: in.m.EngineStats(), cache: in.m.CacheStats(), leaf: sumLeaves([]*leafStore{in.leaf})}
	if in.srv != nil {
		s.srv = in.srv.Stats()
	}
	return s
}

// volumes returns the stores the downstream dedup controller scans.
func (in *mountInstance) volumes() ([]backend.Store, error) {
	if in.srv == nil {
		return []backend.Store{in.mem}, nil
	}
	// Copy the objects out of the server so the scan pays no round trips.
	keys, _, err := in.srv.List(context.Background(), "", 0)
	if err != nil {
		return nil, err
	}
	vol := backend.NewMemStore()
	for _, k := range keys {
		obj, _ := in.srv.Object(k)
		if err := backend.WriteFile(vol, k, obj); err != nil {
			return nil, err
		}
	}
	return []backend.Store{vol}, nil
}

func (in *mountInstance) logicalBytes() int64 { return int64(in.cfg.slots * in.cfg.fileBytes) }

func (in *mountInstance) close() error { return in.m.Close() }
