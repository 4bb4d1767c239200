package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/fstest"
	"lamassu/internal/layout"
	"lamassu/internal/vfs"
)

// compressibleBytes builds n deterministic bytes at roughly the given
// incompressible fraction: a PRNG prefix followed by a repeated phrase.
func compressibleBytes(seed int64, n int, randFrac float64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	cut := int(float64(n) * randFrac)
	rng.Read(b[:cut])
	phrase := []byte("lamassu compressible payload ")
	for i := cut; i < n; i++ {
		b[i] = phrase[(i-cut)%len(phrase)]
	}
	return b
}

func compressedConfig() Config {
	cfg := testConfig()
	cfg.Compression = true
	return cfg
}

// The full conformance suite over the compressed engine, coalesced and
// per-block: compression must be invisible at the vfs.FS surface.
func TestConformanceCompressed(t *testing.T) {
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), compressedConfig())
	})
}

func TestConformanceCompressedPerBlock(t *testing.T) {
	cfg := compressedConfig()
	cfg.DisableCoalescing = true
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

// TestCompressionRejectsBadGeometry: enabling compression requires a
// geometry whose reserved region can cede the length-table slots.
func TestCompressionRejectsBadGeometry(t *testing.T) {
	geo, err := layout.NewGeometry(512, 1) // LenSlots(512)=1, leaves 0 transients
	if err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.Geometry = geo
	if _, err := New(backend.NewMemStore(), cfg); err == nil {
		t.Fatal("compression accepted over a geometry with no transient slots left")
	}
}

// maskMetaBlocks returns raw with every metadata block zeroed: the
// GCM metadata seal uses a fresh random nonce per write, so only the
// data-block regions are comparable across mounts.
func maskMetaBlocks(raw []byte) []byte {
	geo := layout.Default()
	out := append([]byte(nil), raw...)
	for si := int64(0); ; si++ {
		off := geo.MetaBlockOffset(si)
		if off >= int64(len(out)) {
			break
		}
		end := off + int64(geo.BlockSize)
		if end > int64(len(out)) {
			end = int64(len(out))
		}
		zero(out[off:end])
	}
	return out
}

// TestCompressionPreservesDedup is the determinism contract end to end:
// two independent mounts (separate stores, same zone keys, compression
// on) writing identical plaintext must produce byte-identical data
// blocks on the backing store — same convergent keys, same compressed
// frames — so cross-host deduplication of compressed data still works
// exactly as §3's convergent-encryption argument requires. (Metadata
// blocks are sealed under a per-write random nonce and are excluded,
// as they are from deduplication itself.)
func TestCompressionPreservesDedup(t *testing.T) {
	data := compressibleBytes(11, 300*4096, 0.3)
	var files [2][]byte
	for i := range files {
		store := backend.NewMemStore()
		lfs := newFS(t, store, compressedConfig())
		if err := vfs.WriteAll(lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		raw, err := backend.ReadFile(store, "f")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = maskMetaBlocks(raw)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("identical plaintext produced different backing data blocks under compression")
	}
}

// TestCompressionOffGolden pins the data-block bytes a compression-OFF
// mount produces for a fixed workload (metadata blocks are masked —
// their seal nonce is random). The raw encode path must stay
// byte-identical across releases — compression is opt-in, and a mount
// that never opts in must keep producing exactly the pre-compression
// format. Regenerate only for a deliberate, versioned format change.
func TestCompressionOffGolden(t *testing.T) {
	const wantHash = "30fae6648416062e0360b24205fb46f9edc0fedc2fd9f23b8524da28afdc4dcf"
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	data := compressibleBytes(5, 200*4096+1234, 0.4)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	raw, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(maskMetaBlocks(raw))
	if got := hex.EncodeToString(sum[:]); got != wantHash {
		t.Fatalf("compression-off backing bytes drifted:\n  got  %s (len %d)\n  want %s",
			got, len(raw), wantHash)
	}
}

// TestCompressionCrossModeInterop: either setting must read files the
// other wrote, and a compression-off FS keeps a compressed segment's
// length table consistent when writing into it.
func TestCompressionCrossModeInterop(t *testing.T) {
	data := compressibleBytes(21, 250*4096, 0.25)

	// Compressed writer, raw reader.
	store := backend.NewMemStore()
	if err := vfs.WriteAll(newFS(t, store, compressedConfig()), "f", data); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(newFS(t, store, testConfig()), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compression-off FS misread a compressed file")
	}

	// Raw writer, compressed reader. The file stays raw — only commits
	// from a compression-on FS flip segments.
	store2 := backend.NewMemStore()
	if err := vfs.WriteAll(newFS(t, store2, testConfig()), "f", data); err != nil {
		t.Fatal(err)
	}
	cfs := newFS(t, store2, compressedConfig())
	got, err = vfs.ReadAll(cfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compression-on FS misread a raw file")
	}
	rep, err := cfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
}

// TestCompressionOffWriterIntoCompressedSegment drives the chunked
// commit: a compression-off FS batches up to R live overwrites, but a
// compressed segment has only CompressedReserved transient slots, so
// one batch must split into multiple phase 1–3 commits.
func TestCompressionOffWriterIntoCompressedSegment(t *testing.T) {
	geo := layout.Default()
	if geo.Reserved <= geo.CompressedReserved() {
		t.Fatal("test needs R > CompressedReserved to force chunking")
	}
	store := backend.NewMemStore()
	data := compressibleBytes(31, 100*4096, 0.2)
	if err := vfs.WriteAll(newFS(t, store, compressedConfig()), "f", data); err != nil {
		t.Fatal(err)
	}

	// Overwrite R live blocks in one batch through a compression-off
	// FS; its trigger fires at exactly R live overwrites, above the
	// compressed segment's transient capacity.
	rfs := newFS(t, store, testConfig())
	f, err := rfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < geo.Reserved; i++ {
		chunk := make([]byte, 4096)
		rng.Read(chunk)
		off := int64(i * 2 * 4096)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], chunk)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{testConfig(), compressedConfig()} {
		got, err := vfs.ReadAll(newFS(t, store, cfg), "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("content wrong after chunked commit (compression=%v)", cfg.Compression)
		}
	}
	rep, err := rfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after chunked commit: %+v, %v", rep, err)
	}
}

// TestCompressionBytesOnWire: compressible data must move strictly
// fewer payload bytes than its logical size on both the write and the
// read path, and incompressible data must cost exactly what the raw
// engine charges (the raw-escape guarantee).
func TestCompressionBytesOnWire(t *testing.T) {
	run := func(data []byte) (wr, rd Counters) {
		lfs := newFS(t, backend.NewMemStore(), compressedConfig())
		if err := vfs.WriteAll(lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		wr = lfs.Counters()
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		rd = lfs.Counters()
		rd.LogicalBytes -= wr.LogicalBytes
		rd.StoredBytes -= wr.StoredBytes
		return wr, rd
	}

	const n = 200 * 4096
	cw, cr := run(compressibleBytes(41, n, 0.2))
	for _, b := range []struct {
		name string
		bd   Counters
	}{{"write", cw}, {"read", cr}} {
		if b.bd.LogicalBytes != n {
			t.Fatalf("%s: LogicalBytes = %d, want %d", b.name, b.bd.LogicalBytes, n)
		}
		if b.bd.StoredBytes >= b.bd.LogicalBytes {
			t.Fatalf("%s: compressible data moved %d stored bytes for %d logical",
				b.name, b.bd.StoredBytes, b.bd.LogicalBytes)
		}
		if r := float64(b.bd.LogicalBytes) / float64(b.bd.StoredBytes); r < 1.5 {
			t.Fatalf("%s: compression ratio %.2f, want >= 1.5 on this data", b.name, r)
		}
	}
	if cw.CompressedBlocks == 0 {
		t.Fatal("no blocks recorded as compressed")
	}

	iw, ir := run(compressibleBytes(43, n, 1.0)) // pure noise
	if iw.StoredBytes != iw.LogicalBytes || ir.StoredBytes != ir.LogicalBytes {
		t.Fatalf("incompressible data: stored %d/%d bytes != logical %d/%d",
			iw.StoredBytes, ir.StoredBytes, iw.LogicalBytes, ir.LogicalBytes)
	}
	if iw.RawEscapes == 0 {
		t.Fatal("no raw escapes recorded on incompressible data")
	}
}

// TestCompressionRekey: both rekey flavors over compressed files. The
// outer reseal must preserve the length table verbatim; the full
// rotation re-encodes every block in the rotating FS's mode.
func TestCompressionRekey(t *testing.T) {
	data := compressibleBytes(51, 150*4096, 0.3)
	store := backend.NewMemStore()
	lfs := newFS(t, store, compressedConfig())
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}

	newOuter := testKey(9)
	if _, err := lfs.RekeyOuter("f", newOuter); err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.Outer = newOuter
	lfs2 := newFS(t, store, cfg)
	got, err := vfs.ReadAll(lfs2, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after outer rekey: %v", err)
	}

	newInner := testKey(8)
	if _, err := lfs2.RekeyFull("f", newInner, testKey(7)); err != nil {
		t.Fatal(err)
	}
	cfg.Inner, cfg.Outer = newInner, testKey(7)
	lfs3 := newFS(t, store, cfg)
	got, err = vfs.ReadAll(lfs3, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after full rekey: %v", err)
	}
	rep, err := lfs3.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after full rekey: %+v, %v", rep, err)
	}

	// A compression-off FS rotating a compressed file rewrites it raw.
	rawCfg := testConfig()
	rawCfg.Inner, rawCfg.Outer = newInner, testKey(7)
	rfs := newFS(t, store, rawCfg)
	if _, err := rfs.RekeyFull("f", testKey(6), testKey(5)); err != nil {
		t.Fatal(err)
	}
	rawCfg.Inner, rawCfg.Outer = testKey(6), testKey(5)
	got, err = vfs.ReadAll(newFS(t, store, rawCfg), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after raw-mode full rekey: %v", err)
	}
}

// traceStore records every data-plane backend operation of the files
// it opens, in the order they are issued: "W off len", "R off len"
// and "T size".
type traceStore struct {
	backend.Store
	mu  sync.Mutex
	ops []string
}

func (s *traceStore) note(format string, args ...any) {
	s.mu.Lock()
	s.ops = append(s.ops, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *traceStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, s: s}, nil
}

type traceFile struct {
	backend.File
	s *traceStore
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	f.s.note("R %d %d", off, len(p))
	return f.File.ReadAt(p, off)
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	f.s.note("W %d %d", off, len(p))
	return f.File.WriteAt(p, off)
}

func (f *traceFile) Truncate(size int64) error {
	f.s.note("T %d", size)
	return f.File.Truncate(size)
}

// TestEngineIOShapeGolden pins, for each of the four engine variants,
// the exact sequence of backend operations a fixed workload issues
// (offsets and lengths of every read, write and truncate) and the
// data-block bytes it leaves behind. The workload covers a fresh
// multi-segment write, a compressible overwrite batch, a truncate into
// a partial block and a full read-back, serially (Parallelism 1), so
// the trace is deterministic. Any refactor of the commit or read path
// must leave both hashes unchanged: the I/O shape is the paper's §2.4
// cost model (m+2 per batch per-block, runs+2 coalesced), and the
// bytes are the on-disk format.
func TestEngineIOShapeGolden(t *testing.T) {
	cases := []struct {
		name                string
		perBlock, compress  bool
		ops                 int
		traceHash, dataHash string
	}{
		{"coalesced", false, false, 127,
			"241b602462a601dea045030a7cb40eef36e84cb576d9a4d295724892cf4b66fe",
			"c9101c99c0a3b957970d4dae017b47db8a5707ef22de0378d9d56c1109b37880"},
		{"per-block", true, false, 564,
			"0e5e23c68191f21c0d16573bacda40a6377589b407c31ec75053961d64469d2f",
			"c9101c99c0a3b957970d4dae017b47db8a5707ef22de0378d9d56c1109b37880"},
		{"coalesced-compress", false, true, 395,
			"a5fa2b47208f5c247cbd1b10e29b469f3750862d5d2746bd16908523e0f97b60",
			"2cf452e2b9bcc15bf2e809dd16d2f0a2ad7f168422ec5a11301e2240516186ea"},
		{"per-block-compress", true, true, 668,
			"7b9c2edf02608d16e03700ff2f622594fae23e4ff0eecea9541df1536f65e8b4",
			"2cf452e2b9bcc15bf2e809dd16d2f0a2ad7f168422ec5a11301e2240516186ea"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &traceStore{Store: backend.NewMemStore()}
			cfg := testConfig()
			cfg.Parallelism = 1
			cfg.DisableCoalescing = tc.perBlock
			cfg.Compression = tc.compress
			lfs := newFS(t, store, cfg)
			data := compressibleBytes(5, 200*4096+1234, 0.4)
			if err := vfs.WriteAll(lfs, "f", data); err != nil {
				t.Fatal(err)
			}
			f, err := lfs.OpenRW("f")
			if err != nil {
				t.Fatal(err)
			}
			want, err := writeWorkload(f, data, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			const cut = 150*4096 + 77
			if err := f.Truncate(cut); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := vfs.ReadAll(lfs, "f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[:cut]) {
				t.Fatal("read-back differs from the workload's content")
			}
			store.mu.Lock()
			trace := strings.Join(store.ops, "\n")
			nops := len(store.ops)
			store.mu.Unlock()
			raw, err := backend.ReadFile(store.Store, "f")
			if err != nil {
				t.Fatal(err)
			}
			th := sha256.Sum256([]byte(trace))
			dh := sha256.Sum256(maskMetaBlocks(raw))
			gotTrace, gotData := hex.EncodeToString(th[:]), hex.EncodeToString(dh[:])
			if nops != tc.ops || gotTrace != tc.traceHash || gotData != tc.dataHash {
				t.Fatalf("I/O shape drifted:\n  ops   %d, want %d\n  trace %s\n  want  %s\n  data  %s\n  want  %s",
					nops, tc.ops, gotTrace, tc.traceHash, gotData, tc.dataHash)
			}
		})
	}
}
