package core

import (
	"fmt"

	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
)

// This file holds the encode step every write path shares — commit
// phase 2 and full re-keying — and its inverse. The on-disk addressing
// is untouched by compression: every block still owns its fixed
// BlockSize slot at DataBlockOffset(dbi). Compression only shrinks the
// *payload* written into (and read out of) that slot — a compressed
// block occupies a prefix of its slot, its length recorded in the
// sealed metadata's length table in layout.LenUnit granules.
// Incompressible blocks escape to raw and are stored verbatim,
// full-slot, exactly as in a raw segment; they never cost more bytes
// than the raw engine.

// storedBytes returns the on-disk payload extent of a stable slot's
// block: the full block for a raw segment, length-table driven for a
// compressed one.
func storedBytes(meta *layout.MetaBlock, slot, bs int) int {
	if !meta.Compressed() {
		return bs
	}
	return meta.StoredLen(slot) * layout.LenUnit
}

// setStable installs a block's new key and, in a compressed segment,
// its stored length. A raw segment has no length table: its reserved
// area holds only transient keys, which a length write would scribble
// over.
func setStable(meta *layout.MetaBlock, slot int, key cryptoutil.Key, stored int) {
	meta.SetStableKey(slot, key)
	if meta.Compressed() {
		meta.SetStoredLen(slot, uint8(stored/layout.LenUnit))
	}
}

// encode convergently encrypts one plaintext block into a prefix of
// dst and returns the stored byte count. Without compress the block is
// stored whole. With it, src is deterministically compressed, the
// framed result zero-padded to a layout.LenUnit granule and encrypted,
// so the count is a positive multiple of LenUnit, at most one block;
// when src does not shrink by at least one granule the raw escape
// stores the full block verbatim, exactly the bytes a raw segment
// holds. The key is derived from the RAW plaintext either way, so
// identical plaintext still yields identical ciphertext — dedup
// survives the stage.
func (fs *FS) encode(dst, src []byte, key cryptoutil.Key, compress bool) (int, error) {
	bs := fs.geo.BlockSize
	stored, plain := bs, src
	if compress {
		scratch := fs.slabs.get(bs)
		defer fs.slabs.put(scratch)
		t := fs.cfg.Recorder.Start()
		n, ok := cryptoutil.CompressBlock(scratch[:bs-layout.LenUnit], src)
		fs.cfg.Recorder.Stop(metrics.Encrypt, t)
		if ok {
			stored = (n + layout.LenUnit - 1) / layout.LenUnit * layout.LenUnit
			clear(scratch[n:stored])
			plain = scratch[:stored]
			fs.ctr.compressed.Add(1)
		} else {
			fs.ctr.rawEscapes.Add(1)
		}
	}
	t := fs.cfg.Recorder.Start()
	err := cryptoutil.EncryptBlockCBC(dst[:stored], plain, key)
	fs.cfg.Recorder.Stop(metrics.Encrypt, t)
	return stored, err
}

// decodeStored decrypts and, for a compressed payload, decompresses
// one stored payload of storedBytes bytes into the full plaintext
// block dst. storedBytes == BlockSize means a raw block; anything
// shorter is a framed compressed prefix. A frame that fails to inflate
// to exactly one block is corruption and maps to ErrIntegrity.
func (fs *FS) decodeStored(dst, ct []byte, key cryptoutil.Key, storedBytes int) error {
	bs := fs.geo.BlockSize
	if storedBytes == bs {
		return fs.decryptBlock(dst, ct[:bs], key)
	}
	scratch := fs.slabs.get(bs)
	defer fs.slabs.put(scratch)
	if err := fs.decryptBlock(scratch[:storedBytes], ct[:storedBytes], key); err != nil {
		return err
	}
	t := fs.cfg.Recorder.Start()
	err := cryptoutil.DecompressBlock(dst, scratch[:storedBytes])
	fs.cfg.Recorder.Stop(metrics.Decrypt, t)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	return nil
}
