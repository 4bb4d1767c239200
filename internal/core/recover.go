package core

import (
	"context"
	"errors"
	"fmt"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
)

// recoverSegment repairs a segment whose metadata block is marked
// midupdate — an interrupted multiphase commit (§2.4). For each data
// block governed by the segment, the convergent hash check (§2.5)
// decides which key owns the block:
//
//   - If the block verifies under its stable key, the new data write
//     landed before the crash; nothing to do.
//   - Otherwise each transient (old) key is tried; a hash match proves
//     the block still holds its previous contents, and the stable slot
//     is repaired to the old key.
//   - A block that is entirely zero was a pre-update hole whose new
//     data never reached the store; its slot is repaired to the
//     zero-key hole sentinel.
//   - A block matching no key is unrecoverable (for example a torn
//     sub-block write, which the paper's model explicitly does not
//     defend against); recovery stops with ErrUnrecoverable and the
//     segment is left marked midupdate so the damage stays detectable.
//
// The paper attaches block numbers to the transient keys to locate
// affected blocks; this implementation keeps the published key-table
// arithmetic (K = TotalSlots − R) and locates them with the hash
// check instead — see DESIGN.md §2.3 for the equivalence argument.
//
// On success the metadata block is rewritten with the flag cleared.
//
// ctx is observed between per-block reads. A canceled repair changes
// no on-disk state (the only write is the final metadata rewrite,
// itself ctx-checked), so it can simply be retried.
func (f *file) recoverSegment(ctx context.Context, meta *layout.MetaBlock) error {
	if !meta.MidUpdate() {
		return nil
	}
	geo := f.fs.geo
	seg := int64(meta.SegIndex)
	keysPerSeg := int64(geo.KeysPerSegment())

	phys, err := f.bf.Size()
	if err != nil {
		return err
	}

	bs := geo.BlockSize
	ct := make([]byte, bs)
	plain := make([]byte, bs)
	for slot := 0; slot < geo.KeysPerSegment(); slot++ {
		key := meta.StableKey(slot)
		if key.IsZero() {
			continue // hole slot: nothing to verify
		}
		dbi := seg*keysPerSeg + int64(slot)
		off := geo.DataBlockOffset(dbi)
		if off+int64(bs) > phys {
			// The data block never reached the store (the crash hit
			// before phase 2 extended the file): the slot reverts to
			// its pre-update state.
			meta.SetStableKey(slot, cryptoutil.Key{})
			if meta.Compressed() {
				meta.SetStoredLen(slot, 0)
			}
			continue
		}
		t := f.fs.cfg.Recorder.Start()
		err := backend.ReadFullCtx(ctx, f.bf, ct, off)
		f.fs.ioDone(t, len(ct), 0)
		if err != nil {
			return fmt.Errorf("lamassu: recovery read of block %d: %w", dbi, err)
		}
		// A decode failure here is not fatal: in a compressed segment
		// the stable (key, length) pair describes the NEW block, which
		// may never have landed — the bytes on disk then belong to one
		// of the (transient key, old length) candidates below.
		stored := storedBytes(meta, slot, bs)
		if stored > 0 && f.fs.decodeStored(plain, ct, key, stored) == nil &&
			f.fs.verifyBlock(plain, key) {
			continue // new write landed
		}
		repaired := false
		for r := 0; r < int(meta.NTransient); r++ {
			old := meta.TransientKey(r)
			if old.IsZero() {
				continue
			}
			oldStored := bs
			if meta.Compressed() {
				oldStored = meta.OldLen(r) * layout.LenUnit
				if oldStored <= 0 {
					continue
				}
			}
			if err := f.fs.decodeStored(plain, ct, old, oldStored); err != nil {
				continue
			}
			if f.fs.verifyBlock(plain, old) {
				meta.SetStableKey(slot, old)
				if meta.Compressed() {
					meta.SetStoredLen(slot, uint8(oldStored/layout.LenUnit))
				}
				repaired = true
				break
			}
		}
		if repaired {
			continue
		}
		if allZero(ct) {
			// Pre-update hole whose new data write never landed.
			meta.SetStableKey(slot, cryptoutil.Key{})
			if meta.Compressed() {
				meta.SetStoredLen(slot, 0)
			}
			continue
		}
		return fmt.Errorf("%w: segment %d block %d matches no key", ErrUnrecoverable, seg, dbi)
	}

	meta.SetMidUpdate(false)
	meta.ClearTransient()
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		// The cleared marker never reached the store; keep the
		// in-memory view in agreement so a retry repeats the repair.
		meta.SetMidUpdate(true)
		return err
	}
	return nil
}

// RecoverStats summarizes a recovery pass over one file.
type RecoverStats struct {
	// Segments is the number of segments examined.
	Segments int64
	// Repaired is the number of segments that were found midupdate
	// and successfully repaired.
	Repaired int64
}

// Recover scans every segment of the named file and repairs any that
// were left midupdate by a crash. It is the programmatic form of the
// fsck tool's repair pass and must be run on an otherwise-idle file.
func (fs *FS) Recover(name string) (RecoverStats, error) { return fs.RecoverCtx(nil, name) }

// RecoverCtx is Recover observing ctx between segments (and between
// the per-block reads within a repair). A canceled pass has repaired a
// prefix of the segments; rerunning it is safe and resumes where the
// damage remains.
func (fs *FS) RecoverCtx(ctx context.Context, name string) (RecoverStats, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenWrite)
	if err != nil {
		return RecoverStats{}, mapErr(err)
	}
	defer bf.Close()
	// A recovery pass reads raw on-disk state and may rewrite metadata
	// blocks; start from a cold cache for this file and leave nothing
	// stale behind.
	fs.cache.invalidateFile(name)
	f, err := fs.newFileForRecovery(ctx, bf, name)
	if err != nil {
		return RecoverStats{}, err
	}

	var stats RecoverStats
	phys, err := bf.Size()
	if err != nil {
		return stats, err
	}
	if phys == 0 {
		return stats, nil
	}
	lastSeg := fs.lastSegment(phys)
	for seg := int64(0); seg <= lastSeg; seg++ {
		if err := backend.CtxErr(ctx); err != nil {
			return stats, err
		}
		meta, err := f.metaFor(ctx, seg)
		if err != nil {
			return stats, fmt.Errorf("lamassu: recover segment %d: %w", seg, err)
		}
		stats.Segments++
		if !meta.MidUpdate() {
			continue
		}
		if err := f.recoverSegment(ctx, meta); err != nil {
			return stats, err
		}
		stats.Repaired++
	}
	return stats, nil
}

// newFileForRecovery builds a minimal handle for recovery: the
// authoritative size may itself live in a midupdate final segment, so
// size loading must not fail recovery; it is only used for block-range
// bounds, for which the physical size suffices.
func (fs *FS) newFileForRecovery(ctx context.Context, bf backend.File, name string) (*file, error) {
	size, err := fs.logicalSize(ctx, bf, name)
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			return nil, err
		}
		// Fall back to the physical extent; recovery touches only
		// blocks that exist on the backing store anyway.
		phys, perr := bf.Size()
		if perr != nil {
			return nil, perr
		}
		size = phys
	}
	f := &file{
		fs:   fs,
		bf:   bf,
		name: name,
		size: size,
		segs: make(map[int64]*segment),
	}
	f.BindCursor(f)
	return f, nil
}

// CheckReport summarizes an integrity audit of one file.
type CheckReport struct {
	// Segments and DataBlocks are the totals examined.
	Segments   int64
	DataBlocks int64
	// MidUpdate counts segments still carrying the midupdate flag
	// (crash damage awaiting recovery).
	MidUpdate int64
	// BadMeta counts metadata blocks failing GCM authentication.
	BadMeta int64
	// BadData counts data blocks failing the convergent hash check.
	BadData int64
	// LogicalSize is the authoritative size read from the final
	// metadata block.
	LogicalSize int64
}

// Clean reports whether the audit found no damage.
func (r CheckReport) Clean() bool {
	return r.MidUpdate == 0 && r.BadMeta == 0 && r.BadData == 0
}

// Check audits the named file without modifying it: every metadata
// block's GCM tag is verified, and every data block is verified
// against its stored convergent key (the §2.5 mechanism). Blocks in
// midupdate segments are verified against both stable and transient
// keys.
func (fs *FS) Check(name string) (CheckReport, error) { return fs.CheckCtx(nil, name) }

// CheckCtx is Check observing ctx between segments; the audit mutates
// nothing, so a canceled pass is simply incomplete.
func (fs *FS) CheckCtx(ctx context.Context, name string) (CheckReport, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenRead)
	if err != nil {
		return CheckReport{}, mapErr(err)
	}
	defer bf.Close()

	var rep CheckReport
	phys, err := bf.Size()
	if err != nil {
		return rep, err
	}
	if phys == 0 {
		return rep, nil
	}
	geo := fs.geo
	lastSeg := fs.lastSegment(phys)

	// The final metadata block carries the size; tolerate its absence.
	if size, err := fs.logicalSize(ctx, bf, name); err == nil {
		rep.LogicalSize = size
	}

	ct := make([]byte, geo.BlockSize)
	plain := make([]byte, geo.BlockSize)
	keysPerSeg := int64(geo.KeysPerSegment())
	for seg := int64(0); seg <= lastSeg; seg++ {
		if err := backend.CtxErr(ctx); err != nil {
			return rep, err
		}
		rep.Segments++
		meta, err := fs.readMeta(ctx, bf, seg)
		if err != nil {
			if errors.Is(err, ErrCanceled) {
				return rep, err
			}
			rep.BadMeta++
			continue
		}
		if meta.MidUpdate() {
			rep.MidUpdate++
		}
		for slot := 0; slot < geo.KeysPerSegment(); slot++ {
			key := meta.StableKey(slot)
			if key.IsZero() {
				continue
			}
			dbi := seg*keysPerSeg + int64(slot)
			off := geo.DataBlockOffset(dbi)
			if off+int64(geo.BlockSize) > phys {
				if !meta.MidUpdate() {
					rep.BadData++ // keyed block with no data at all
				}
				continue
			}
			if err := backend.ReadFullCtx(ctx, bf, ct, off); err != nil {
				if errors.Is(err, ErrCanceled) {
					return rep, err
				}
				rep.BadData++
				continue
			}
			rep.DataBlocks++
			stored := storedBytes(meta, slot, geo.BlockSize)
			if stored > 0 && fs.decodeStored(plain, ct, key, stored) == nil &&
				fs.verifyBlock(plain, key) {
				continue
			}
			if meta.MidUpdate() && fs.matchesTransient(meta, ct, plain) {
				continue
			}
			if meta.MidUpdate() && allZero(ct) {
				continue
			}
			rep.BadData++
		}
	}
	return rep, nil
}

// matchesTransient reports whether ct verifies under any transient key
// of meta (decoded at that key's paired old stored length when the
// segment is compressed).
func (fs *FS) matchesTransient(meta *layout.MetaBlock, ct, scratch []byte) bool {
	bs := len(ct)
	for r := 0; r < int(meta.NTransient); r++ {
		old := meta.TransientKey(r)
		if old.IsZero() {
			continue
		}
		oldStored := bs
		if meta.Compressed() {
			oldStored = meta.OldLen(r) * layout.LenUnit
			if oldStored <= 0 {
				continue
			}
		}
		if err := fs.decodeStored(scratch, ct, old, oldStored); err != nil {
			continue
		}
		if fs.verifyBlock(scratch, old) {
			return true
		}
	}
	return false
}

// IsUnrecoverable reports whether err indicates crash damage that
// recovery cannot repair.
func IsUnrecoverable(err error) bool { return errors.Is(err, ErrUnrecoverable) }
