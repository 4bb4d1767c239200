package main

import (
	"time"

	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
)

// cryptoFloor is the single-core rate of the crypto every data block
// needs, measured on this machine from direct calls into cryptoutil.
// Writing a block costs SHA-256 (the CE key's hash), the key derivation
// and AES-CBC encryption, with DEFLATE first when compress is set.
// Reading a block costs AES-CBC decryption and, under full integrity,
// the re-hash, with inflate when compress is set.
type cryptoFloor struct {
	writeMBps, readMBps float64
}

// seconds is the floor time for the given logical bytes.
func (f cryptoFloor) seconds(written, read int64) float64 {
	return float64(written)/1e6/f.writeMBps + float64(read)/1e6/f.readMBps
}

// measureFloor times the per-block crypto over sample (a multiple of
// blockSize) and keeps the best of five passes of at least 40 ms each.
func measureFloor(sample []byte, compress bool) cryptoFloor {
	var inner cryptoutil.Key
	inner[0] = 1
	kd := cryptoutil.NewCEKeyDeriver(inner)
	n := len(sample) / blockSize
	type sealed struct {
		key        cryptoutil.Key
		data       []byte
		compressed bool
	}
	blocks := make([]sealed, n)
	scratch := make([]byte, blockSize)
	write := func() {
		for i := 0; i < n; i++ {
			src := sample[i*blockSize : (i+1)*blockSize]
			k := kd.Derive(cryptoutil.BlockHash(src))
			out := blocks[i].data
			if out == nil {
				out = make([]byte, blockSize)
			}
			payload, compressed := src, false
			if compress {
				if c, ok := cryptoutil.CompressBlock(scratch[:blockSize-layout.LenUnit], src); ok {
					stored := (c + layout.LenUnit - 1) / layout.LenUnit * layout.LenUnit
					clear(scratch[c:stored])
					payload, compressed = scratch[:stored], true
				}
			}
			out = out[:len(payload)]
			if err := cryptoutil.EncryptBlockCBC(out, payload, k); err != nil {
				panic(err)
			}
			blocks[i] = sealed{key: k, data: out, compressed: compressed}
		}
	}
	plain := make([]byte, blockSize)
	read := func() {
		for i := 0; i < n; i++ {
			b := blocks[i]
			if err := cryptoutil.DecryptBlockCBC(scratch[:len(b.data)], b.data, b.key); err != nil {
				panic(err)
			}
			out := scratch[:blockSize]
			if b.compressed {
				if err := cryptoutil.DecompressBlock(plain, scratch[:len(b.data)]); err != nil {
					panic(err)
				}
				out = plain
			}
			if cryptoutil.BlockHash(out) == ([32]byte{}) {
				panic("unreachable")
			}
		}
	}
	best := func(op func()) float64 {
		var rate float64
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			var bytes int64
			for time.Since(start) < 40*time.Millisecond {
				op()
				bytes += int64(len(sample))
			}
			rate = max(rate, float64(bytes)/1e6/time.Since(start).Seconds())
		}
		return rate
	}
	f := cryptoFloor{writeMBps: best(write)}
	f.readMBps = best(read)
	return f
}
