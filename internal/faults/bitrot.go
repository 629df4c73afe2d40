package faults

import (
	"fmt"
	"math/rand"
	"os"

	"gdmp/internal/durable"
)

// KindBitRot labels silent on-disk corruption injected by FlipBytes.
const KindBitRot = "bitrot"

// FlipBytes corrupts a landed replica in place: it flips one bit in each
// of n distinct bytes of the file, chosen by a rand source seeded with
// seed. The size and mtime-visible shape of the file are untouched — this
// is the silent bit-rot a scrubber exists to catch, not a truncation a
// size check would see. It returns the byte offsets flipped (sorted by
// pick order) so tests can assert the corruption landed.
//
// Determinism: the same (seed, n, file size) always flips the same
// offsets, so a failing scrub chaos run replays from its logged seed.
func FlipBytes(path string, seed int64, n int) ([]int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("faults: bitrot: %s is empty", path)
	}
	if int64(n) > size {
		n = int(size)
	}
	rng := rand.New(rand.NewSource(seed))
	picked := make(map[int64]bool, n)
	offsets := make([]int64, 0, n)
	for len(offsets) < n {
		off := rng.Int63n(size)
		if picked[off] {
			continue
		}
		picked[off] = true
		offsets = append(offsets, off)
	}
	one := make([]byte, 1)
	for _, off := range offsets {
		if _, err := f.ReadAt(one, off); err != nil {
			return offsets, err
		}
		one[0] ^= 1 << uint(rng.Intn(8))
		if _, err := f.WriteAt(one, off); err != nil {
			return offsets, err
		}
	}
	if err := durable.Sync(f); err != nil {
		return offsets, err
	}
	return offsets, nil
}

// KindBlockRot labels block-aligned burst corruption injected by
// FlipBlocks.
const KindBlockRot = "blockrot"

// FlipBlocks corrupts a landed replica in n distinct block-sized bursts:
// the file is viewed as consecutive blockSize-byte regions (the last one
// ragged), n distinct regions are chosen by a rand source seeded with
// seed, and one bit is flipped somewhere inside each. This is the damage
// shape erasure-coded repair is sized against — "at most m damaged
// blocks" — so chaos suites drive the ≤m rebuild path and the >m
// fallback path with exact block budgets instead of hoping scattered
// single-byte flips land in few enough blocks. Returns the damaged block
// indices, sorted by pick order.
//
// Determinism: the same (seed, blockSize, n, file size) always damages
// the same blocks at the same offsets.
func FlipBlocks(path string, seed int64, blockSize int64, n int) ([]int, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("faults: blockrot: block size %d", blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("faults: blockrot: %s is empty", path)
	}
	blocks := int((size + blockSize - 1) / blockSize)
	if n > blocks {
		n = blocks
	}
	rng := rand.New(rand.NewSource(seed))
	picked := make(map[int]bool, n)
	damaged := make([]int, 0, n)
	for len(damaged) < n {
		b := rng.Intn(blocks)
		if picked[b] {
			continue
		}
		picked[b] = true
		damaged = append(damaged, b)
	}
	one := make([]byte, 1)
	for _, b := range damaged {
		start := int64(b) * blockSize
		blen := blockSize
		if start+blen > size {
			blen = size - start
		}
		off := start + rng.Int63n(blen)
		if _, err := f.ReadAt(one, off); err != nil {
			return damaged, err
		}
		one[0] ^= 1 << uint(rng.Intn(8))
		if _, err := f.WriteAt(one, off); err != nil {
			return damaged, err
		}
	}
	if err := durable.Sync(f); err != nil {
		return damaged, err
	}
	return damaged, nil
}

// FlipBlocks is the Injector-bound form of the package-level FlipBlocks,
// seeded from the harness source and counted under
// gdmp_faults_injected_total{kind="blockrot"}.
func (in *Injector) FlipBlocks(path string, blockSize int64, n int) ([]int, error) {
	in.mu.Lock()
	seed := in.rng.Int63()
	in.mu.Unlock()
	blocks, err := FlipBlocks(path, seed, blockSize, n)
	if err == nil {
		in.count(KindBlockRot)
	}
	return blocks, err
}

// FlipBytes is the Injector-bound form of the package-level FlipBytes: it
// derives the corruption seed from the harness's seeded source (keeping
// whole-run replayability from one logged seed) and counts the fault in
// gdmp_faults_injected_total{kind="bitrot"}.
func (in *Injector) FlipBytes(path string, n int) ([]int64, error) {
	in.mu.Lock()
	seed := in.rng.Int63()
	in.mu.Unlock()
	offs, err := FlipBytes(path, seed, n)
	if err == nil {
		in.count(KindBitRot)
	}
	return offs, err
}
