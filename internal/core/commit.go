package core

import (
	"context"
	"fmt"
	"sort"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/metrics"
)

// commitSegment runs the multiphase commit protocol (§2.4) for one
// segment's pending blocks:
//
//  1. Write the segment's metadata block with the midupdate flag set,
//     the new convergent keys (and, in a compressed segment, stored
//     lengths) installed in the stable slots, and the previous keys
//     preserved in the transient (reserved) slots.
//  2. Write the encoded data blocks.
//  3. Write the metadata block again with the flag cleared and the
//     transient slots zeroed.
//
// Every engine variant is this one pipeline: encode every pending
// block, merge the sorted slots into disk-contiguous runs, and write
// each run with a single WriteAt between the two barriers (commitChunk
// and writeRuns). A raw segment is simply the case where every stored
// length equals BlockSize. A batch of m blocks costs runs+2 backing
// I/Os; the paper's per-block engine (Config.DisableCoalescing) caps
// runs at one block, so it costs exactly the paper's m+2.
//
// The transient slots only need to preserve the previous keys of
// blocks that were live before the commit; a block that was a hole (a
// zero-key slot) has no previous key, and both the read path and
// crash recovery already treat "keyed block whose data never landed"
// as that hole. Batching is therefore bounded by R *overwritten live
// blocks*, not R pending blocks: a purely sequential append buffers a
// whole segment and commits it with one run — 3 backing I/Os for 118
// blocks — while overwrites of live data still commit every R writes
// exactly as the paper prescribes. The per-block engine keeps the
// original R-pending policy.
//
// The CPU-bound per-block work — key derivation and encoding — fans
// out across the FS worker pool before the phase-1 barrier, and the
// run writes fan out between the two barriers. The barriers themselves
// — and therefore the §2.4 crash-consistency guarantees — are exactly
// the serial protocol's: no data block is written before the phase-1
// metadata write completes, and the phase-3 write begins only after
// every data block write has returned.
//
// Cancellation (API v2): ctx is observed before every backend write —
// between the phase barriers and between the individual run writes of
// phase 2 — never inside one. A cancellation point is therefore
// exactly a crash point of the existing sweeps: phase 1 canceled
// leaves the old committed state intact, phase 2 canceled leaves the
// segment midupdate with a recoverable mix of old and new blocks, and
// phase 3 canceled leaves a fully-written segment whose marker the
// next recovery clears. The pending buffers stay staged, so retrying
// the commit with a live context converges (the midupdate repair at
// the top of this function plus the already-durable drop below
// re-commit only what never landed).
//
// The caller must hold seg.mu exclusively.
func (f *file) commitSegment(ctx context.Context, seg *segment, si int64) error {
	if len(seg.pending) == 0 {
		// Nothing buffered (e.g. a truncate dropped the pending set);
		// clear the batching counter so its staleness cannot trigger
		// premature one-block commits later.
		seg.liveOverwrites = 0
		return nil
	}
	if f.fs.cfg.DisableCoalescing && len(seg.pending) > f.fs.geo.Reserved {
		// The per-block batching policy commits at R, so this is a bug
		// guard.
		return fmt.Errorf("lamassu: internal error: %d pending blocks exceed R=%d in segment %d",
			len(seg.pending), f.fs.geo.Reserved, si)
	}
	if err := f.ensureMeta(ctx, seg, si); err != nil {
		return err
	}
	// Refuse to start mutating the in-memory metadata under an
	// already-dead context; after this point cancellation is observed
	// at backend-write boundaries only.
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	meta := seg.meta
	// A segment still marked midupdate carries recovery state from an
	// interrupted commit; repair it before reusing the transient slots.
	if meta.MidUpdate() {
		if err := f.recoverSegment(ctx, meta); err != nil {
			return err
		}
	}

	slots := make([]int, 0, len(seg.pending))
	for s := range seg.pending {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	// Derive the new convergent keys (fanned out — the SHA-256 block
	// hashes dominate the write path, Figure 9).
	newKeys := make([]cryptoutil.Key, len(slots))
	err := f.fs.pool.run(ctx, len(slots), func(i int) error {
		k, err := f.fs.deriveKey(seg.pending[slots[i]])
		if err != nil {
			return fmt.Errorf("lamassu: deriving key for segment %d slot %d: %w", si, slots[i], err)
		}
		newKeys[i] = k
		return nil
	})
	if err != nil {
		return err
	}

	// A pending block whose stable key already equals its derived key
	// is already durable: convergent keys are one-to-one with content,
	// so the on-disk ciphertext IS this plaintext. Dropping such
	// blocks makes a commit retry after a partially-landed batch
	// converge — recovery promotes the landed blocks to live under
	// exactly these keys, and re-staging them would both waste I/O and
	// overflow the R transient slots (they were fresh when the
	// batching trigger counted them). Identical same-content
	// overwrites get the same free pass. (Coalesced engine only: the
	// per-block engine keeps the paper's exact I/O accounting.)
	if !f.fs.cfg.DisableCoalescing {
		kept := 0
		for i, s := range slots {
			if meta.StableKey(s).Equal(newKeys[i]) {
				continue
			}
			slots[kept], newKeys[kept] = s, newKeys[i]
			kept++
		}
		slots, newKeys = slots[:kept], newKeys[:kept]
	}

	// With every block already on disk there is nothing to commit; the
	// logical size, if dirty, is persistSize's job.
	if len(slots) > 0 {
		// A compressed-mode FS flips each raw segment it first commits
		// into: the flag and freshly initialized length table (live
		// blocks marked raw-full — the bytes already on disk stay valid)
		// are persisted by the phase-1 barrier. The reverse flip never
		// happens, and a compression-off FS keeps maintaining the length
		// table of a segment some other mount compressed, so the codec
		// never has to guess.
		if f.fs.cfg.Compression && !meta.Compressed() {
			meta.InitCompressed()
		}
		sizeAtCommit, err := f.commitBatch(ctx, seg, si, slots, newKeys)
		if err != nil {
			return err
		}
		// The final metadata block now carries the size this commit
		// observed; only mark the size clean if it has not moved since
		// (a concurrent writer may have extended the file while our
		// barriers were in flight).
		f.stateMu.Lock()
		if f.size == sizeAtCommit && f.isFinalSegmentLocked(si) {
			f.sizeDirty = false
		}
		f.stateMu.Unlock()
	}

	// The pending buffers came from the slab pool (pendingBlock);
	// recycle them now that their ciphertext is durable.
	for _, buf := range seg.pending {
		f.fs.slabs.put(buf)
	}
	clear(seg.pending)
	seg.liveOverwrites = 0
	return nil
}

// commitBatch encodes the batch and commits it in one or more complete
// phase 1–3 chunks, returning the logical size the last phase-1
// barrier persisted.
//
// The encode (compress when the segment is compressed, then encrypt)
// of every block runs BEFORE phase 1: the stored lengths land in the
// same sealed metadata write that publishes the new keys, so they must
// exist up front. That is pure CPU work with no backend I/O, so no
// data byte is written before the phase-1 barrier completes.
//
// A compressed segment's length table costs layout.LenSlots() of the R
// reserved slots, so one phase can stage at most EffReserved() live
// overwrites. This FS's own write triggers bound batches accordingly
// when compression is on, but a compression-off FS writing into a
// segment some other mount compressed can legally arrive with up to R
// — the batch is partitioned into consecutive chunks, each its own
// complete phase 1–3 commit. A crash between chunks leaves earlier
// chunks fully committed and later ones never started: exactly the
// state a crash between two independent commits leaves. A raw segment
// always commits in one chunk.
func (f *file) commitBatch(ctx context.Context, seg *segment, si int64, slots []int, newKeys []cryptoutil.Key) (int64, error) {
	meta := seg.meta
	if !meta.Compressed() {
		// The overwrite-bounded batching policy must leave enough
		// transient slots for every live block this commit replaces; a
		// violation is a bug in the trigger accounting, caught here
		// before any state changes.
		overwrites := 0
		for _, s := range slots {
			if !meta.StableKey(s).IsZero() {
				overwrites++
			}
		}
		if overwrites > f.fs.geo.Reserved {
			return 0, fmt.Errorf("lamassu: internal error: %d live blocks overwritten exceed R=%d in segment %d",
				overwrites, f.fs.geo.Reserved, si)
		}
	}

	// Each block's stored form lands at the front of its own
	// BlockSize-strided slot of one slab, lens[i] bytes long.
	bs := f.fs.geo.BlockSize
	cts := f.fs.slabs.get(len(slots) * bs)
	defer f.fs.slabs.put(cts)
	lens := make([]int, len(slots))
	err := f.fs.pool.run(ctx, len(slots), func(i int) error {
		n, err := f.fs.encode(cts[i*bs:(i+1)*bs], seg.pending[slots[i]], newKeys[i], meta.Compressed())
		if err != nil {
			return fmt.Errorf("lamassu: encoding segment %d slot %d: %w", si, slots[i], err)
		}
		lens[i] = n
		return nil
	})
	if err != nil {
		return 0, err
	}

	rAvail := meta.EffReserved()
	var sizeAtCommit int64
	for lo := 0; lo < len(slots); {
		hi, overwrites := lo, 0
		for hi < len(slots) {
			if !meta.StableKey(slots[hi]).IsZero() {
				if overwrites == rAvail {
					break
				}
				overwrites++
			}
			hi++
		}
		sizeAtCommit, err = f.commitChunk(ctx, seg, si,
			slots[lo:hi], newKeys[lo:hi], lens[lo:hi], cts[lo*bs:hi*bs])
		if err != nil {
			return 0, err
		}
		lo = hi
	}
	return sizeAtCommit, nil
}

// commitChunk runs one complete phase 1–3 commit for a chunk whose live
// overwrites fit the segment's transient capacity. cts holds the
// chunk's encoded blocks, one BlockSize-strided slot each, with
// lens[i] valid payload bytes at the front.
func (f *file) commitChunk(ctx context.Context, seg *segment, si int64, slots []int, newKeys []cryptoutil.Key, lens []int, cts []byte) (int64, error) {
	meta := seg.meta
	keysPerSeg := int64(f.fs.geo.KeysPerSegment())

	// Phase 1: stage the old key of each live block into a transient
	// slot (paired, in a compressed segment, with its old stored
	// length), install the new keys and lengths, mark midupdate,
	// persist. Hole slots stage nothing: recovery and the mid-update
	// read path identify old contents by the hash check, and a keyed
	// block whose data never landed reads back as the hole it was. The
	// length pairing is load-bearing: recovery decodes an old-contents
	// candidate with transient key r at OldLen(r) — a key without its
	// length could not be decoded at all.
	ti := 0
	for i, s := range slots {
		if old := meta.StableKey(s); !old.IsZero() {
			meta.SetTransientKey(ti, old)
			if meta.Compressed() {
				meta.SetOldLen(ti, uint8(meta.StoredLen(s)))
			}
			ti++
		}
		setStable(meta, s, newKeys[i], lens[i])
	}
	meta.NTransient = uint32(ti)
	meta.SetMidUpdate(true)
	sizeAtCommit := f.sizeNow()
	meta.LogicalSize = uint64(sizeAtCommit)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return 0, fmt.Errorf("lamassu: commit phase 1 (segment %d): %w", si, err)
	}

	// The data writes below replace the committed blocks' on-disk
	// ciphertext; drop their cached plaintext BEFORE phase 2 starts
	// and again right after the batch returns — even on error, when
	// some writes landed and some did not — so a read that
	// re-populated from pre-phase-2 disk state while the batch was in
	// flight cannot outlive it. The guard is explicit: the cache
	// methods tolerate a nil receiver, but this path must not depend on
	// that incidental contract.
	var dbis []int64
	if f.fs.cache != nil {
		dbis = make([]int64, len(slots))
		for i, s := range slots {
			dbis[i] = si*keysPerSeg + int64(s)
		}
		f.fs.cache.invalidateDataBlocks(f.name, dbis)
	}
	err := f.writeRuns(ctx, si, slots, lens, cts)
	if f.fs.cache != nil {
		f.fs.cache.invalidateDataBlocks(f.name, dbis)
	}
	if err != nil {
		return 0, err
	}

	// A raw full-slot write of the batch's last block would have
	// extended the backing file to the end of that slot; a short
	// stored payload does not. Pad the physical extent up to the slot
	// boundary so the fixed-slot addressing — and every phys-bound
	// guard in recovery, audit and rekey — holds identically with
	// compression. Ordering matters: the pad lands before the phase-3
	// barrier, so a cleanly committed segment never has a keyed slot
	// beyond the physical extent.
	if bs := f.fs.geo.BlockSize; lens[len(lens)-1] < bs {
		end := f.fs.geo.DataBlockOffset(si*keysPerSeg+int64(slots[len(slots)-1])) + int64(bs)
		phys, err := f.bf.Size()
		if err != nil {
			return 0, err
		}
		if phys < end {
			t := f.fs.cfg.Recorder.Start()
			err := backend.TruncateCtx(ctx, f.bf, end)
			f.fs.cfg.Recorder.Stop(metrics.IO, t)
			if err != nil {
				return 0, fmt.Errorf("lamassu: commit phase 2 (segment %d extent pad): %w", si, err)
			}
		}
	}

	// Phase 3: clear the update marker. ClearTransient preserves the
	// stable length table in compressed mode and zeroes the old
	// lengths alongside the transient keys.
	meta.SetMidUpdate(false)
	meta.ClearTransient()
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		// The phase-3 write never landed: the on-disk segment is still
		// marked midupdate, so the in-memory view must agree or a
		// commit retry would skip the repair pass.
		meta.SetMidUpdate(true)
		return 0, fmt.Errorf("lamassu: commit phase 3 (segment %d): %w", si, err)
	}
	return sizeAtCommit, nil
}

// writeRuns is phase 2: the chunk's sorted slots merge into
// disk-contiguous runs, each written with a single backend WriteAt.
// Within a segment consecutive slots are consecutive blocks on disk,
// and a run extends only while the PREVIOUS block is stored full-slot:
// that makes the merged payload contiguous both in the encoded slab
// and on disk, so a run of k blocks is one WriteAt of
// (k-1)*BlockSize + lens[last] bytes — a short final block still
// coalesces, trimming the tail of the write. A short block in the
// middle ends its run (the slack after its payload is not ours to
// write; the next block starts a new WriteAt at its own slot). Runs
// also split at shard stripe boundaries, so each WriteAt lands on
// exactly one shard.
//
// The write fan-out unit is the run. With an I/O window configured,
// the run writes — pure backend I/O, the encode already fanned out —
// dispatch on the window itself instead of the worker pool, so the
// number of WriteAts on the wire tracks the link's depth rather than
// the CPU budget; otherwise over a sharded store each run is charged
// to the budget of the one shard it lands on, so commits into one hot
// shard queue on that shard's slice of the pool instead of starving
// the others. The failure of the lowest run wins, deterministically.
func (f *file) writeRuns(ctx context.Context, si int64, slots []int, lens []int, cts []byte) error {
	geo := f.fs.geo
	bs := geo.BlockSize
	keysPerSeg := int64(geo.KeysPerSegment())
	runs := f.mergeRuns(len(slots),
		func(i int) int64 { return geo.DataBlockOffset(si*keysPerSeg + int64(slots[i])) },
		func(i int) bool { return slots[i] == slots[i-1]+1 && lens[i-1] == bs })
	writeRun := func(r int) error {
		run := runs[r]
		payload := cts[run.lo*bs : (run.hi-1)*bs+lens[run.hi-1]]
		// The window slot brackets the backend call only; the task may
		// already hold a pool slot (see ioWindow's deadlock note).
		f.fs.iow.acquire()
		t := f.fs.cfg.Recorder.Start()
		_, werr := backend.WriteAtCtx(ctx, f.bf, payload, run.off)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		f.fs.iow.release()
		f.fs.cfg.Recorder.CountIOBytes(int64(len(payload)))
		f.fs.cfg.Recorder.CountDataBytes(int64((run.hi-run.lo)*bs), int64(len(payload)))
		f.fs.cfg.Recorder.CountEvent(metrics.WriteRun, 1)
		if werr != nil {
			dbi := si*keysPerSeg + int64(slots[run.lo])
			return fmt.Errorf("lamassu: commit phase 2 (run of %d blocks at block %d): %w",
				run.hi-run.lo, dbi, werr)
		}
		return nil
	}
	adm, shardOf := admitGlobal, (func(int) int)(nil)
	switch {
	case f.fs.iow != nil:
		adm = admitNone
	case f.fs.sharded != nil:
		adm = admitShard
		shardOf = func(r int) int { return f.fs.sharded.ShardOf(f.name, runs[r].off) }
	}
	_, err := f.fs.pool.fanOut(ctx, len(runs), adm, shardOf, writeRun)
	return err
}

// ioRun is one backend I/O: the half-open index range [lo, hi) into
// the caller's sorted slot (or span) list whose blocks are contiguous
// on disk, and the backing offset of the first block.
type ioRun struct {
	lo, hi int
	off    int64
}

// mergeRuns merges items 0..n-1 into disk-contiguous runs: item i
// extends the current run when adjacent(i) reports it is the block
// immediately after item i-1 on disk, no shard stripe boundary falls
// between the two (stripes are block-aligned, so contiguous blocks can
// only change shards at a stripe edge), and the run is shorter than
// maxRun. off(i) is item i's backing offset. maxRun is 1 in the
// paper's per-block engine (Config.DisableCoalescing) — one backend
// call per block — and unbounded otherwise. The commit and read paths
// share this so their split semantics cannot diverge.
func (f *file) mergeRuns(n int, off func(int) int64, adjacent func(int) bool) []ioRun {
	maxRun := n
	if f.fs.cfg.DisableCoalescing {
		maxRun = 1
	}
	var stripe int64
	if f.fs.sharded != nil {
		stripe = f.fs.sharded.StripeBytes()
	}
	bs := int64(f.fs.geo.BlockSize)
	runs := make([]ioRun, 0, 4)
	for i := 0; i < n; i++ {
		o := off(i)
		if i > 0 && i-runs[len(runs)-1].lo < maxRun && adjacent(i) &&
			(stripe <= 0 || (o-bs)/stripe == o/stripe) {
			runs[len(runs)-1].hi = i + 1
			continue
		}
		runs = append(runs, ioRun{lo: i, hi: i + 1, off: o})
	}
	return runs
}

// isFinalSegmentLocked reports whether si is the file's final segment
// at the current logical size (whose metadata carries the
// authoritative size, §2.3). The caller must hold stateMu.
func (f *file) isFinalSegmentLocked(si int64) bool {
	ndb := f.fs.geo.NumDataBlocks(f.size)
	if ndb == 0 {
		return si == 0
	}
	return si == f.fs.geo.SegmentOfBlock(ndb-1)
}

// commitAll flushes every pending segment and persists the
// authoritative logical size in the final metadata block. The caller
// must hold opMu exclusively.
func (f *file) commitAll(ctx context.Context) error {
	f.stateMu.Lock()
	segs := make([]int64, 0, len(f.segs))
	for si, seg := range f.segs {
		if len(seg.pending) > 0 {
			segs = append(segs, si)
		}
	}
	f.stateMu.Unlock()
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, si := range segs {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		seg := f.segment(si)
		seg.mu.Lock()
		err := f.commitSegment(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return f.persistSize(ctx)
}

// persistSize writes the current logical size into the final metadata
// block and extends the backing file to the matching physical size.
// Stale sizes in earlier metadata blocks are intentionally left in
// place; readers only trust the final block (§2.3). The caller must
// hold opMu exclusively.
func (f *file) persistSize(ctx context.Context) error {
	if !f.sizeDirty {
		return nil
	}
	if f.size == 0 {
		// An empty file stores no blocks at all (Equations 4–6 give
		// NDB = NMB = 0).
		t := f.fs.cfg.Recorder.Start()
		err := f.bf.Truncate(0)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		if err != nil {
			return err
		}
		f.segs = make(map[int64]*segment)
		// Explicit nil guard, as in commitChunk's bracket.
		if f.fs.cache != nil {
			f.fs.cache.invalidateFile(f.name)
		}
		f.sizeDirty = false
		return nil
	}
	ndb := f.fs.geo.NumDataBlocks(f.size)
	lastSeg := f.fs.geo.SegmentOfBlock(ndb - 1)
	meta, err := f.metaFor(ctx, lastSeg)
	if err != nil {
		return err
	}
	meta.LogicalSize = uint64(f.size)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return err
	}
	phys, err := f.bf.Size()
	if err != nil {
		return err
	}
	if want := f.fs.geo.PhysicalSize(f.size); phys < want {
		t := f.fs.cfg.Recorder.Start()
		err := backend.TruncateCtx(ctx, f.bf, want)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		if err != nil {
			return err
		}
	}
	f.sizeDirty = false
	return nil
}
