package main

import (
	"math/rand/v2"

	"lamassu/internal/backend"
	"lamassu/internal/datagen"
	"lamassu/internal/layout"
	"lamassu/internal/plainfs"
	"lamassu/internal/vfs"
)

const blockSize = layout.DefaultBlockSize

// gen makes a caller's inputs and random choices, deterministically in
// the run's seed and the caller's stream. Contents come from the
// repository's generator, datagen.Synthetic: a fraction alpha of a
// file's blocks duplicate earlier blocks of the same file, so fixed-block
// dedup reclaims alpha of them; the rest are random and, with ratio > 1,
// compress to about 1/ratio under the engine's own block codec.
type gen struct {
	rng          *rand.Rand
	alpha, ratio float64
}

func newGen(seed, stream uint64, alpha, ratio float64) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, stream)), alpha: alpha, ratio: ratio}
}

// file returns n bytes (a multiple of blockSize) of fresh content.
func (g *gen) file(n int) []byte {
	s := datagen.Synthetic{
		Blocks: n / blockSize, BlockSize: blockSize, Alpha: g.alpha,
		Seed: g.rng.Int64(), Compressibility: g.ratio,
	}
	fs := plainfs.New(backend.NewMemStore())
	if err := s.Generate(fs, "f"); err != nil {
		panic(err)
	}
	data, err := vfs.ReadAll(fs, "f")
	if err != nil {
		panic(err)
	}
	return data
}

// block returns one fresh block: the payload of a 4 KiB write-range.
func (g *gen) block() []byte { return g.file(blockSize) }
