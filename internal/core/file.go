package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/vfs"
)

// file is an open Lamassu file handle.
//
// Concurrency model (see also the package comment): a handle may be
// used by many goroutines at once. Positional I/O (ReadAt, WriteAt,
// Size) holds opMu shared so requests run concurrently; whole-file
// operations (Truncate, Sync, Close) hold it exclusively and therefore
// drain all in-flight I/O first. Within positional I/O, each segment
// carries its own RWMutex: block reads of a segment hold it shared,
// while writes into the segment's pending state — and the segment's
// multiphase commit — hold it exclusively. A reader therefore never
// observes a half-committed segment, commits of different segments
// proceed in parallel, and readers are only ever delayed by a commit
// of the very segment they are reading.
//
// Lock order: opMu → segment.mu → stateMu. stateMu is a leaf: no other
// lock is acquired while holding it. The handle still assumes it is
// the only writer of the underlying object (single-mount semantics, as
// in the FUSE prototype); concurrent writers must share one handle.
type file struct {
	// Cursor supplies the io.Reader/io.Writer/io.Seeker methods over
	// the positional I/O below (std-lib interop; bound in newFile).
	vfs.Cursor

	fs       *FS
	bf       backend.File
	name     string
	readOnly bool

	// opMu is the outer operation gate described above.
	opMu sync.RWMutex

	// seqEnd is the byte offset one past the last completed ReadAt —
	// the sequential-read detector's state. A read starting exactly
	// where the previous one ended is a forward scan and arms the
	// asynchronous readahead; prefetchBusy bounds the prefetcher to
	// one in-flight window per handle, and raNext is the watermark
	// (first block not yet prefetched) so a scan does not re-issue
	// windows it already fetched. All three are heuristic state:
	// races only cost a skipped or duplicated window, never
	// correctness.
	seqEnd       atomic.Int64
	prefetchBusy atomic.Bool
	raNext       atomic.Int64

	// stateMu guards the fields below.
	stateMu sync.Mutex
	// size is the logical file size including pending (uncommitted)
	// writes.
	size int64
	// sizeDirty records that size has changed since the last time the
	// final metadata block was written.
	sizeDirty bool
	closed    bool
	// segs holds the per-segment concurrency state, created lazily.
	segs map[int64]*segment
}

// segment is the per-segment concurrency unit of a handle.
type segment struct {
	// mu is held shared by block reads of this segment and exclusively
	// by writes into pending state and by the segment's commit.
	mu sync.RWMutex
	// meta is the handle's decoded metadata block (nil until loaded).
	// It is loaded and mutated only under mu held exclusively and read
	// under either mode.
	meta *layout.MetaBlock
	// pending buffers plaintext block writes by stable slot. The
	// buffers come from the FS slab pool and return to it when the
	// segment commits.
	pending map[int][]byte
	// liveOverwrites counts the pending slots that may replace a live
	// (non-hole) on-disk block and therefore claim a transient key
	// slot at commit. It is a conservative upper bound — maintained in
	// pendingBlock, reset by the commit — and drives the
	// overwrite-bounded batching policy (see commitSegment).
	liveOverwrites int
}

// newFile opens a handle and loads the authoritative size.
func (fs *FS) newFile(ctx context.Context, bf backend.File, name string, readOnly bool) (*file, error) {
	size, err := fs.logicalSize(ctx, bf, name)
	if err != nil {
		return nil, err
	}
	f := &file{
		fs:       fs,
		bf:       bf,
		name:     name,
		readOnly: readOnly,
		size:     size,
		segs:     make(map[int64]*segment),
	}
	f.BindCursor(f)
	return f, nil
}

// segment returns the concurrency state for segment si, creating it on
// first use.
func (f *file) segment(si int64) *segment {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	s := f.segs[si]
	if s == nil {
		s = &segment{pending: make(map[int][]byte)}
		f.segs[si] = s
	}
	return s
}

// sizeNow returns the current logical size.
func (f *file) sizeNow() int64 {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	return f.size
}

// checkOpen reports ErrClosed after Close.
func (f *file) checkOpen() error {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	if f.closed {
		return backend.ErrClosed
	}
	return nil
}

// Size implements vfs.File.
func (f *file) Size() (int64, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	return f.sizeNow(), nil
}

// ReadAt implements vfs.File. Concurrent calls proceed in parallel.
//
// A request covering one block takes an allocation-free fast path (a
// cache or pending hit completes with no heap traffic at all). A
// multi-block request is merged into runs of disk-adjacent blocks,
// each fetched with a single backend read; see readSpans.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtCtx(nil, p, off)
}

// ReadAtCtx implements vfs.File: ReadAt observing ctx between blocks
// and runs. On cancellation it returns the number of leading valid
// bytes of p and an error wrapping ErrCanceled.
func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("lamassu: negative offset %d", off)
	}
	f.fs.cfg.Recorder.CountOp()
	size := f.sizeNow()
	if off >= size {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	var atEOF bool
	if off+int64(n) > size {
		n = int(size - off)
		atEOF = true
	}
	bs := f.fs.geo.BlockSize
	if bo := int(off % int64(bs)); bo+n <= bs {
		// Single-block fast path: no span slice, and a full-block
		// request decrypts (or cache-copies) straight into p.
		dbi := off / int64(bs)
		if bo == 0 && n == bs {
			if err := f.readBlock(ctx, dbi, p[:bs]); err != nil {
				return 0, err
			}
		} else {
			scratch := f.fs.slabs.get(bs)
			err := f.readBlock(ctx, dbi, scratch)
			if err == nil {
				copy(p[:n], scratch[bo:bo+n])
			}
			f.fs.slabs.put(scratch)
			if err != nil {
				return 0, err
			}
		}
	} else if bad, err := f.readSpans(ctx, p, vfs.Spans(off, n, bs)); err != nil {
		return bad, err
	}
	f.noteSequential(off, int64(n), size)
	if atEOF {
		return n, io.EOF
	}
	return n, nil
}

// readSpans is the multi-span reader: it merges the spans into runs of
// disk-adjacent blocks with the commit path's rule (mergeRuns) — split
// at segment boundaries (the metadata block between two segments
// breaks disk adjacency), at shard stripe boundaries (so each backend
// read lands on exactly one shard) and, in the per-block engine, after
// every block. Each run costs at most one backend read (readRun).
//
// Runs are dispatched without pool slots: a reader can block on a
// segment lock held by that segment's commit, and the commit needs
// pool slots to finish — a reader holding one while it waits would
// deadlock the pool. Over a sharded store each shard's runs are
// fetched in order on their own goroutine, so the decrypt and backend
// I/O of independent shards overlap; with an I/O window every run of
// an unsharded store gets its own goroutine, so independent runs of
// one request overlap on the wire instead of paying one round trip
// each in sequence (the window slot is taken around the backend read
// only, so a run blocked on a segment lock or a pool decode slot never
// holds wire budget); otherwise the runs are read serially.
//
// On failure it returns the number of leading bytes of p that are
// valid and the failing error: runs are in ascending buffer order, so
// the lowest failing run carries the lowest failing buffer position.
func (f *file) readSpans(ctx context.Context, p []byte, spans []vfs.Span) (int, error) {
	geo := f.fs.geo
	runs := f.mergeRuns(len(spans),
		func(i int) int64 { return geo.DataBlockOffset(spans[i].Index) },
		func(i int) bool {
			return spans[i].Index == spans[i-1].Index+1 &&
				geo.SegmentOfBlock(spans[i].Index) == geo.SegmentOfBlock(spans[i-1].Index)
		})
	var shards []int
	lane := func(int) int { return 0 }
	switch {
	case f.fs.sharded != nil:
		// One ring lookup per stripe: offsets within a stripe share a
		// shard, and a whole-file-placed store (stripe <= 0) needs a
		// single lookup for all runs.
		shards = make([]int, len(runs))
		stripe := f.fs.sharded.StripeBytes()
		for r, run := range runs {
			if r > 0 && (stripe <= 0 || runs[r-1].off/stripe == run.off/stripe) {
				shards[r] = shards[r-1]
			} else {
				shards[r] = f.fs.sharded.ShardOf(f.name, run.off)
			}
		}
		lane = func(r int) int { return shards[r] }
	case f.fs.iow != nil:
		lane = nil
	}
	idx, err := f.fs.pool.fanOut(ctx, len(runs), admitNone, lane, func(r int) error {
		run, shard := runs[r], -1
		if shards != nil {
			shard = shards[r]
		}
		if bad, err := f.readRun(ctx, p, spans[run.lo:run.hi], shard); err != nil {
			return &spanError{bad, err}
		}
		return nil
	})
	if err != nil {
		if se, ok := err.(*spanError); ok {
			return se.bufOff, se.err
		}
		return spans[runs[idx].lo].BufOff, err
	}
	return 0, nil
}

// spanError carries the buffer position of a failed span through
// fanOut, whose lowest-task-index error semantics then yield the lowest
// failing position deterministically.
type spanError struct {
	bufOff int
	err    error
}

func (e *spanError) Error() string { return e.err.Error() }
func (e *spanError) Unwrap() error { return e.err }

// readRun serves one run of disk-adjacent spans within a single
// segment (and, when sharded, a single stripe owned by shard s; pass
// s < 0 when unsharded). Pending, cached and hole blocks are filled
// from memory; the remaining blocks are fetched in payload-contiguous
// sub-runs, one backend read each (fetchContig). In a compressed
// segment the payloads are only contiguous while each block before the
// last is stored full-slot — a short block leaves dead slack before
// the next slot — so a sub-run also ends after every short block, the
// same adjacency rule writeRuns commits under.
func (f *file) readRun(ctx context.Context, p []byte, spans []vfs.Span, shard int) (int, error) {
	geo := f.fs.geo
	bs := geo.BlockSize
	si := geo.SegmentOfBlock(spans[0].Index)
	seg := f.segment(si)
	for {
		seg.mu.RLock()
		if seg.meta != nil {
			break
		}
		seg.mu.RUnlock()
		seg.mu.Lock()
		err := f.ensureMeta(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return spans[0].BufOff, err
		}
	}
	meta := seg.meta
	if meta.MidUpdate() {
		// Crash-recovery state: the single-block path knows how to try
		// the transient keys; coalescing a mid-update segment is not
		// worth the duplicated logic.
		seg.mu.RUnlock()
		block := f.fs.slabs.get(bs)
		defer f.fs.slabs.put(block)
		for _, sp := range spans {
			if err := f.readBlock(ctx, sp.Index, block); err != nil {
				return sp.BufOff, err
			}
			copy(p[sp.BufOff:sp.BufOff+sp.Len], block[sp.Start:sp.Start+sp.Len])
		}
		return 0, nil
	}
	defer seg.mu.RUnlock()

	var scratch []byte // lazily pooled block for partial-span copies
	defer func() {
		if scratch != nil {
			f.fs.slabs.put(scratch)
		}
	}()
	fetchFrom := -1
	for i := 0; i <= len(spans); i++ {
		served := true
		if i < len(spans) {
			sp := spans[i]
			slot := geo.SlotOfBlock(sp.Index)
			if plain, ok := seg.pending[slot]; ok {
				copy(p[sp.BufOff:sp.BufOff+sp.Len], plain[sp.Start:sp.Start+sp.Len])
			} else if meta.StableKey(slot).IsZero() {
				zero(p[sp.BufOff : sp.BufOff+sp.Len])
			} else if sp.Full(bs) && f.fs.cache.getData(f.name, sp.Index, p[sp.BufOff:sp.BufOff+bs]) {
				// served straight into p
			} else if !sp.Full(bs) {
				if scratch == nil {
					scratch = f.fs.slabs.get(bs)
				}
				if f.fs.cache.getData(f.name, sp.Index, scratch) {
					copy(p[sp.BufOff:sp.BufOff+sp.Len], scratch[sp.Start:sp.Start+sp.Len])
				} else {
					served = false
				}
			} else {
				served = false
			}
		}
		if fetchFrom >= 0 && (served || storedBytes(meta, geo.SlotOfBlock(spans[i-1].Index), bs) < bs) {
			if bad, err := f.fetchContig(ctx, p, spans[fetchFrom:i], meta, shard); err != nil {
				return bad, err
			}
			fetchFrom = -1
		}
		if !served && fetchFrom < 0 {
			fetchFrom = i
		}
	}
	return 0, nil
}

// fetchContig reads one payload-contiguous sub-run of uncached, live
// blocks with a single backend read and fans the per-block decode
// (AES-CBC decrypt, decompress for short-stored blocks) and §2.5 hash
// verification across the worker pool. In a compressed segment only
// the final block may be stored short, so the ranged read trims its
// slack off the wire. Full-block spans decode straight into the
// caller's buffer; partial spans decode into pooled scratch and copy
// out. Verified plaintext enters the block cache under the usual
// generation guard.
func (f *file) fetchContig(ctx context.Context, p []byte, spans []vfs.Span, meta *layout.MetaBlock, shard int) (int, error) {
	geo := f.fs.geo
	bs := geo.BlockSize
	n := len(spans)
	last := storedBytes(meta, geo.SlotOfBlock(spans[n-1].Index), bs)
	if last <= 0 {
		return spans[n-1].BufOff, fmt.Errorf("%w: block %d: keyed slot with zero stored length",
			ErrIntegrity, spans[n-1].Index)
	}
	readLen := (n-1)*bs + last
	slab := f.fs.slabs.get(n * bs)
	defer f.fs.slabs.put(slab)
	gen := f.fs.cache.snapshot()

	done := f.fs.pool.noteShardRead(shard)
	// Window slot around the backend read only — released before the
	// decode fan-out below takes pool slots (see ioWindow).
	f.fs.iow.acquire()
	t := f.fs.cfg.Recorder.Start()
	err := backend.ReadFullCtx(ctx, f.bf, slab[:readLen], geo.DataBlockOffset(spans[0].Index))
	f.fs.ioDone(t, readLen, n*bs)
	f.fs.iow.release()
	f.fs.ctr.readRuns.Add(1)
	done()
	if err != nil {
		return spans[0].BufOff, fmt.Errorf("lamassu: reading run of %d blocks at block %d: %w",
			n, spans[0].Index, err)
	}

	decode := func(i int) error {
		sp := spans[i]
		slot := geo.SlotOfBlock(sp.Index)
		stored := storedBytes(meta, slot, bs)
		if stored <= 0 {
			return &spanError{sp.BufOff, fmt.Errorf("%w: block %d: keyed slot with zero stored length",
				ErrIntegrity, sp.Index)}
		}
		ct := slab[i*bs : i*bs+stored]
		key := meta.StableKey(slot)
		dst := p[sp.BufOff : sp.BufOff+sp.Len]
		var scratch []byte
		if !sp.Full(bs) {
			scratch = f.fs.slabs.get(bs)
			defer f.fs.slabs.put(scratch)
			dst = scratch
		}
		if err := f.fs.decodeStored(dst, ct, key, stored); err != nil {
			return &spanError{sp.BufOff, err}
		}
		if f.fs.cfg.Integrity == IntegrityFull && !f.fs.verifyBlock(dst, key) {
			return &spanError{sp.BufOff, fmt.Errorf("%w: block %d", ErrIntegrity, sp.Index)}
		}
		f.fs.cache.putData(f.name, sp.Index, dst, gen)
		if scratch != nil {
			copy(p[sp.BufOff:sp.BufOff+sp.Len], scratch[sp.Start:sp.Start+sp.Len])
		}
		return nil
	}
	if n > 1 && f.fs.pool.Width() > 1 {
		err = f.fs.pool.run(ctx, n, decode)
	} else {
		for i := 0; i < n && err == nil; i++ {
			err = decode(i)
		}
	}
	if err != nil {
		if se, ok := err.(*spanError); ok {
			return se.bufOff, se.err
		}
		return spans[0].BufOff, err
	}
	return 0, nil
}

// noteSequential advances the sequential-read detector after a
// successful ReadAt of [off, off+n) and, on a detected forward scan,
// arms one asynchronous readahead of the next Config.Readahead blocks
// into the block cache.
func (f *file) noteSequential(off, n, size int64) {
	ra := f.fs.cfg.Readahead
	if ra <= 0 || f.fs.cache == nil || f.fs.cfg.DisableCoalescing {
		return
	}
	end := off + n
	if f.seqEnd.Swap(end) != off || end >= size {
		return
	}
	bs := int64(f.fs.geo.BlockSize)
	nextB := (end + bs - 1) / bs // first whole block at or after end
	// The watermark keeps the prefetcher between one and ~three
	// windows ahead of the reader: behind the reader it restarts at
	// the reader's position, within reach it continues from where it
	// left off, comfortably ahead it does nothing, and far beyond
	// reach (stale state from a scan elsewhere in the file) it
	// restarts.
	start := nextB
	switch w := f.raNext.Load(); {
	case w <= nextB:
		// fresh scan, or the prefetcher fell behind
	case w < nextB+2*int64(ra):
		start = w // chase the watermark
	case w <= nextB+3*int64(ra):
		return // comfortably ahead; let the reader catch up
	}
	maxB := f.fs.geo.NumDataBlocks(size)
	if start >= maxB {
		return
	}
	cnt := int64(ra)
	if start+cnt > maxB {
		cnt = maxB - start
	}
	if !f.prefetchBusy.CompareAndSwap(false, true) {
		return
	}
	f.raNext.Store(start + cnt)
	go f.prefetch(start, int(cnt))
}

// prefetch reads blocks [db, db+n) through the multi-span reader,
// populating the block cache as a side effect. It is best-effort:
// errors are dropped (the foreground read that eventually arrives
// re-reads and re-verifies), and the handle's operation gate is held
// shared so Truncate/Close cannot run concurrently.
func (f *file) prefetch(db int64, n int) {
	defer f.prefetchBusy.Store(false)
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if f.checkOpen() != nil {
		return
	}
	bs := f.fs.geo.BlockSize
	buf := f.fs.slabs.get(n * bs)
	defer f.fs.slabs.put(buf)
	spans := make([]vfs.Span, n)
	for i := range spans {
		spans[i] = vfs.Span{Index: db + int64(i), Start: 0, Len: bs, BufOff: i * bs}
	}
	f.fs.ctr.prefetches.Add(1)
	// Deliberately detached from any caller context: readahead is
	// best-effort background work, and the read that armed it has
	// already returned.
	_, _ = f.readSpans(nil, buf, spans)
}

// readBlock places the full plaintext of logical data block dbi into
// dst (len == BlockSize). Pending writes are visible; unwritten
// (hole) blocks read as zeros.
func (f *file) readBlock(ctx context.Context, dbi int64, dst []byte) error {
	geo := f.fs.geo
	si := geo.SegmentOfBlock(dbi)
	slot := geo.SlotOfBlock(dbi)
	seg := f.segment(si)
	cacheProbed := false
	for {
		seg.mu.RLock()
		if plain, ok := seg.pending[slot]; ok {
			copy(dst, plain)
			seg.mu.RUnlock()
			return nil
		}
		// Probe the cache once per read; the meta-load retry below must
		// not count a second miss for the same logical lookup.
		if !cacheProbed {
			cacheProbed = true
			if f.fs.cache.getData(f.name, dbi, dst) {
				seg.mu.RUnlock()
				return nil
			}
		}
		if seg.meta != nil {
			err := f.readBlockMeta(ctx, seg, dbi, slot, dst)
			seg.mu.RUnlock()
			return err
		}
		seg.mu.RUnlock()
		// The segment's metadata is not loaded yet; load it under the
		// exclusive lock, then retry (pending state or the cache may
		// have changed while the lock was released).
		seg.mu.Lock()
		err := f.ensureMeta(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// ensureMeta loads the segment's metadata block if it is not resident.
// The caller must hold seg.mu exclusively. Segments beyond the backing
// file decode as empty metadata (all zero-key slots).
func (f *file) ensureMeta(ctx context.Context, seg *segment, si int64) error {
	if seg.meta != nil {
		return nil
	}
	if m := f.fs.cache.getMeta(f.name, si); m != nil {
		seg.meta = m
		return nil
	}
	gen := f.fs.cache.snapshot()
	phys, err := f.bf.Size()
	if err != nil {
		return err
	}
	var m *layout.MetaBlock
	if f.fs.geo.MetaBlockOffset(si)+int64(f.fs.geo.BlockSize) > phys {
		m = layout.NewMetaBlock(f.fs.geo, uint64(si))
	} else {
		m, err = f.fs.readMeta(ctx, f.bf, si)
		if err != nil {
			return err
		}
		f.fs.cache.putMeta(f.name, si, m, gen)
	}
	seg.meta = m
	return nil
}

// readBlockMeta reads data block dbi through the segment's loaded
// metadata: decode (decrypt, and decompress when the segment stores
// the block compressed), verify, fall back to transient keys for
// segments caught mid-update by a crash. The caller must hold seg.mu
// (either mode) with seg.meta loaded, and must have checked pending
// state.
func (f *file) readBlockMeta(ctx context.Context, seg *segment, dbi int64, slot int, dst []byte) error {
	geo := f.fs.geo
	bs := geo.BlockSize
	meta := seg.meta
	key := meta.StableKey(slot)
	if key.IsZero() {
		zero(dst)
		return nil
	}

	// The ranged read covers only the stored payload — the whole win of
	// compression on the wire. A mid-update segment reads the full slot
	// regardless: the old contents being identified below may be longer
	// than the new stored length, and the hole check needs every byte.
	stored := storedBytes(meta, slot, bs)
	if stored <= 0 {
		return fmt.Errorf("%w: block %d: keyed slot with zero stored length", ErrIntegrity, dbi)
	}
	readLen := stored
	if meta.MidUpdate() {
		readLen = bs
	}

	gen := f.fs.cache.snapshot()
	ct := f.fs.slabs.get(bs)
	defer f.fs.slabs.put(ct)
	f.fs.iow.acquire()
	t := f.fs.cfg.Recorder.Start()
	err := backend.ReadFullCtx(ctx, f.bf, ct[:readLen], geo.DataBlockOffset(dbi))
	f.fs.ioDone(t, readLen, bs)
	f.fs.iow.release()
	if err != nil {
		return fmt.Errorf("lamassu: reading data block %d: %w", dbi, err)
	}

	// Integrity checking (§2.5). Under IntegrityFull every block is
	// verified; under meta-only we still verify when the segment is
	// mid-update (a crashed commit), because the stored stable key may
	// legitimately not match and the transient keys must be tried. A
	// decode failure outside mid-update is final; inside it, it just
	// means the stable (key, length) pair does not describe the bytes
	// on disk yet — exactly the case the transient loop resolves.
	if derr := f.fs.decodeStored(dst, ct, key, stored); derr != nil {
		if !meta.MidUpdate() {
			return derr
		}
	} else {
		needVerify := f.fs.cfg.Integrity == IntegrityFull || meta.MidUpdate()
		if !needVerify || f.fs.verifyBlock(dst, key) {
			f.fs.cache.putData(f.name, dbi, dst, gen)
			return nil
		}
	}
	if meta.MidUpdate() {
		// Interrupted commit: the old key for this block is among the
		// transient slots (§2.4), paired with its old stored length in
		// compressed mode. Identify it by the hash check; a candidate
		// that fails to decode is simply not this block's old state.
		for r := 0; r < int(meta.NTransient); r++ {
			old := meta.TransientKey(r)
			if old.IsZero() {
				// Block was a hole before the interrupted update.
				continue
			}
			oldStored := bs
			if meta.Compressed() {
				oldStored = meta.OldLen(r) * layout.LenUnit
				if oldStored <= 0 {
					continue
				}
			}
			if err := f.fs.decodeStored(dst, ct, old, oldStored); err != nil {
				continue
			}
			if f.fs.verifyBlock(dst, old) {
				return nil
			}
		}
		// A pre-update hole whose new data write never landed reads
		// back as the zero block under hole semantics.
		if allZero(ct[:readLen]) {
			zero(dst)
			return nil
		}
	}
	return fmt.Errorf("%w: block %d", ErrIntegrity, dbi)
}

// WriteAt implements vfs.File. Concurrent calls proceed in parallel;
// writes into the same segment serialize on that segment's lock. A
// request within one block takes an allocation-free fast path when its
// block is already pending.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtCtx(nil, p, off)
}

// WriteAtCtx implements vfs.File: WriteAt observing ctx between blocks
// and between the backend writes of any multiphase commit the write
// triggers. A cancellation that lands inside a commit returns an error
// wrapping ErrCanceled and leaves the segment in a crash-equivalent
// state: the §2.4 recovery protocol (run implicitly by the next commit
// of the segment, or explicitly via Recover) repairs it, and no
// previously committed byte is lost.
func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if f.readOnly {
		return 0, ErrReadOnly
	}
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("lamassu: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.fs.cfg.Recorder.CountOp()

	geo := f.fs.geo
	bs := geo.BlockSize
	if bo := int(off % int64(bs)); bo+len(p) <= bs {
		// Single-block fast path: no span slice.
		dbi := off / int64(bs)
		sp := vfs.Span{Index: dbi, Start: bo, Len: len(p), BufOff: 0}
		si := geo.SegmentOfBlock(dbi)
		slot := geo.SlotOfBlock(dbi)
		seg := f.segment(si)
		seg.mu.Lock()
		err := f.writeSpan(ctx, seg, si, slot, sp, p, off)
		seg.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return len(p), nil
	}
	for _, sp := range vfs.Spans(off, len(p), bs) {
		if err := backend.CtxErr(ctx); err != nil {
			return sp.BufOff, err
		}
		si := geo.SegmentOfBlock(sp.Index)
		slot := geo.SlotOfBlock(sp.Index)
		seg := f.segment(si)
		seg.mu.Lock()
		err := f.writeSpan(ctx, seg, si, slot, sp, p, off)
		seg.mu.Unlock()
		if err != nil {
			return sp.BufOff, err
		}
	}
	return len(p), nil
}

// writeSpan applies one block-intersecting span of a write under the
// segment's exclusive lock, extending the logical size and committing
// the segment when the batching policy fires. The paper's policy — a
// commit once every R block writes (§2.4) — governs the per-block
// engine and, under coalescing, writes that replace live blocks (which
// claim the R transient slots). Pending blocks that were holes claim
// no transient slot, so fresh data batches until the segment is full:
// a sequential append commits a whole segment at once, which the
// coalescing layer then writes as a single run.
func (f *file) writeSpan(ctx context.Context, seg *segment, si int64, slot int, sp vfs.Span, p []byte, off int64) error {
	buf, err := f.pendingBlock(ctx, seg, si, slot, sp.Index, sp.Full(f.fs.geo.BlockSize))
	if err != nil {
		return err
	}
	copy(buf[sp.Start:sp.Start+sp.Len], p[sp.BufOff:sp.BufOff+sp.Len])
	end := off + int64(sp.BufOff+sp.Len)
	f.stateMu.Lock()
	if end > f.size {
		f.size = end
		f.sizeDirty = true
	}
	f.stateMu.Unlock()
	// With compression on, the length table occupies LenSlots of the R
	// reserved slots, so batches bound themselves to the compressed-mode
	// transient capacity. (A compression-off FS keeps the full-R
	// triggers even over segments some other mount compressed; the
	// commit path chunks such batches to fit.)
	rCap := f.fs.geo.Reserved
	if f.fs.cfg.Compression {
		rCap = f.fs.geo.CompressedReserved()
	}
	if f.fs.cfg.DisableCoalescing {
		if len(seg.pending) >= rCap {
			return f.commitSegment(ctx, seg, si)
		}
		return nil
	}
	if seg.liveOverwrites >= rCap || len(seg.pending) >= f.fs.geo.KeysPerSegment() {
		return f.commitSegment(ctx, seg, si)
	}
	return nil
}

// pendingBlock returns the mutable plaintext buffer for (seg, slot),
// creating it from the current on-disk contents when needed. When the
// caller will overwrite the entire block (full == true) the old
// contents need not be read — this is what keeps full-block writes
// one-pass, as in the paper's prototype. The buffer comes from the
// slab pool (commit returns it there), so its initial contents are
// undefined: every path below either fills it completely or zeroes
// it. The caller must hold seg.mu exclusively.
func (f *file) pendingBlock(ctx context.Context, seg *segment, si int64, slot int, dbi int64, full bool) ([]byte, error) {
	if buf, ok := seg.pending[slot]; ok {
		return buf, nil
	}
	// Count the blocks that may replace live data — they claim the R
	// transient slots at commit and bound the coalescing batch. With
	// the metadata resident the check is exact; before that, any block
	// inside the logical size is conservatively assumed live.
	live := false
	if seg.meta != nil {
		live = !seg.meta.StableKey(slot).IsZero()
	} else {
		live = f.blockMayExist(dbi)
	}
	buf := f.fs.slabs.get(f.fs.geo.BlockSize)
	switch {
	case full:
		// Every byte is about to be overwritten.
	case f.blockMayExist(dbi):
		if !f.fs.cache.getData(f.name, dbi, buf) {
			if err := f.ensureMeta(ctx, seg, si); err != nil {
				f.fs.slabs.put(buf)
				return nil, err
			}
			if err := f.readBlockMeta(ctx, seg, dbi, slot, buf); err != nil {
				f.fs.slabs.put(buf)
				return nil, err
			}
		}
	default:
		// Fresh partial block: the bytes around the written span must
		// read as zeros.
		zero(buf)
	}
	if live {
		seg.liveOverwrites++
	}
	seg.pending[slot] = buf
	return buf, nil
}

// blockMayExist reports whether logical data block dbi lies within the
// current logical size (and therefore may hold data that a partial
// write must preserve).
func (f *file) blockMayExist(dbi int64) bool {
	return dbi < f.fs.geo.NumDataBlocks(f.sizeNow())
}

// Truncate implements vfs.File.
func (f *file) Truncate(newSize int64) error { return f.TruncateCtx(nil, newSize) }

// TruncateCtx implements vfs.File: the resize observes ctx between
// the block and segment operations it performs (a sub-block shrink
// re-commits the boundary segment; a grow persists the new size). A
// canceled cut is a crash cut — rerun it, or Recover, before trusting
// the size.
func (f *file) TruncateCtx(ctx context.Context, newSize int64) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return ErrReadOnly
	}
	if newSize < 0 {
		return fmt.Errorf("lamassu: negative size %d", newSize)
	}
	if newSize == f.size {
		return nil
	}
	if newSize < f.size {
		return f.shrink(ctx, newSize)
	}
	return f.grow(ctx, newSize)
}

// shrink truncates the file to newSize < size.
//
// Locking exemption (also grow, persistSize, commitAll): these run
// only with opMu held exclusively, which drains all positional I/O,
// so they read and write the stateMu-guarded fields and per-segment
// state directly without taking the inner locks. Do not call them
// from a path holding opMu shared.
func (f *file) shrink(ctx context.Context, newSize int64) error {
	geo := f.fs.geo
	bs := int64(geo.BlockSize)
	newNDB := geo.NumDataBlocks(newSize)

	// Drop pending blocks at or beyond the new end. The batching
	// counter is rebuilt as a conservative bound (every surviving
	// pending block may be a live overwrite) — leaving the dropped
	// blocks' contribution in place would trigger premature commits
	// later.
	for si, seg := range f.segs {
		for slot, buf := range seg.pending {
			dbi := si*int64(geo.KeysPerSegment()) + int64(slot)
			if dbi >= newNDB {
				delete(seg.pending, slot)
				f.fs.slabs.put(buf)
			}
		}
		if seg.liveOverwrites > len(seg.pending) {
			seg.liveOverwrites = len(seg.pending)
		}
	}

	// Zero the dropped tail of a now-partial final block so a later
	// grow reads zeros there (pad-with-zeros semantics, §2.3).
	if tail := newSize % bs; tail != 0 {
		dbi := newNDB - 1
		si := geo.SegmentOfBlock(dbi)
		slot := geo.SlotOfBlock(dbi)
		seg := f.segment(si)
		buf, err := f.pendingBlock(ctx, seg, si, slot, dbi, false)
		if err != nil {
			return err
		}
		zero(buf[tail:])
	}

	f.size = newSize
	f.sizeDirty = true

	// The cut invalidates any cached blocks beyond the new end (and
	// the zeroed tail); drop the whole file for simplicity — truncation
	// is rare and re-population is one read away.
	f.fs.cache.invalidateFile(f.name)

	// Flush pending state, then cut metadata beyond the new end.
	if err := f.commitAll(ctx); err != nil {
		return err
	}
	if newSize == 0 {
		f.segs = make(map[int64]*segment)
		t := f.fs.cfg.Recorder.Start()
		err := f.bf.Truncate(0)
		f.fs.ioDone(t, 0, 0)
		// Post-truncate drop: a read that re-populated from the
		// pre-truncate store while the cut was in flight must not
		// survive it.
		f.fs.cache.invalidateFile(f.name)
		return err
	}

	// Clear stable keys past the new final block in the final
	// segment, then drop whole segments beyond it.
	lastSeg := geo.SegmentOfBlock(newNDB - 1)
	meta, err := f.metaFor(ctx, lastSeg)
	if err != nil {
		return err
	}
	lastSlot := geo.SlotOfBlock(newNDB - 1)
	for s := lastSlot + 1; s < geo.KeysPerSegment(); s++ {
		if !meta.StableKey(s).IsZero() {
			setStable(meta, s, cryptoutil.Key{}, 0)
		}
	}
	meta.LogicalSize = uint64(newSize)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return err
	}
	f.sizeDirty = false
	for si := range f.segs {
		if si > lastSeg {
			delete(f.segs, si)
		}
	}
	t := f.fs.cfg.Recorder.Start()
	err = f.bf.Truncate(geo.PhysicalSize(newSize))
	f.fs.ioDone(t, 0, 0)
	// Post-truncate drop, as in the newSize == 0 branch above.
	f.fs.cache.invalidateFile(f.name)
	return err
}

// grow extends the file to newSize > size. The extended range is a
// hole (zero-key slots); only the final metadata block is written so
// the authoritative size is durable.
func (f *file) grow(ctx context.Context, newSize int64) error {
	f.size = newSize
	f.sizeDirty = true
	// commitAll persists the final metadata block with the new size
	// and extends the backing file to the new physical size; the
	// extended range is a hole of zero-key slots.
	return f.commitAll(ctx)
}

// metaFor returns the handle's decoded metadata block for segment si,
// loading it if needed. The caller must hold opMu exclusively (no
// concurrent positional I/O).
func (f *file) metaFor(ctx context.Context, si int64) (*layout.MetaBlock, error) {
	seg := f.segment(si)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if err := f.ensureMeta(ctx, seg, si); err != nil {
		return nil, err
	}
	return seg.meta, nil
}

// Sync implements vfs.File: commits all pending segments, persists the
// authoritative size, and syncs the backing store.
func (f *file) Sync() error { return f.SyncCtx(nil) }

// SyncCtx implements vfs.File: Sync observing ctx between the segment
// commits it flushes. A canceled flush leaves uncommitted segments
// pending (retryable with a live context) and any interrupted commit
// in the crash-equivalent state WriteAtCtx documents.
func (f *file) SyncCtx(ctx context.Context) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return nil
	}
	if err := f.commitAll(ctx); err != nil {
		return err
	}
	t := f.fs.cfg.Recorder.Start()
	err := backend.SyncCtx(ctx, f.bf)
	f.fs.ioDone(t, 0, 0)
	return err
}

// Close implements vfs.File.
func (f *file) Close() error { return f.CloseCtx(nil) }

// CloseCtx implements vfs.FileCloserCtx: the flush of pending state
// observes ctx (an already-canceled context skips it entirely — no
// backend work happens after cancellation), while the handle is
// ALWAYS marked closed and the backing handle released. Data left
// uncommitted by a canceled close is dropped with the handle, exactly
// as a crash would drop it; the on-disk state stays recoverable.
func (f *file) CloseCtx(ctx context.Context) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	var err error
	if !f.readOnly {
		err = f.commitAll(ctx)
	}
	f.stateMu.Lock()
	f.closed = true
	f.stateMu.Unlock()
	if cerr := f.bf.Close(); err == nil {
		err = cerr
	}
	return err
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
