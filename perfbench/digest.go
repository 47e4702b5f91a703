package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// digest fingerprints the simulated outputs of the first n ops of a run's
// sequence. Runs that issue the same ops (the same --seed, traced or not)
// must print the same digest, so a change meant only for speed can show it
// left every simulated statistic identical.
type digest struct {
	n     int
	mu    sync.Mutex
	parts map[int][]byte
}

func newDigest(n int) *digest { return &digest{n: n, parts: map[int][]byte{}} }

// add records op's output. An op issued again (each set-up round repeats
// the warm-up ops) must reproduce its earlier output exactly.
func (d *digest) add(op int, output []byte) error {
	if op >= d.n {
		return nil
	}
	sum := sha256.Sum256(output)
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.parts[op]; ok && !bytes.Equal(prev, sum[:]) {
		return fmt.Errorf("op %d output differs from its earlier run", op)
	}
	d.parts[op] = sum[:]
	return nil
}

// sum returns the digest, or an error when an op it covers produced no
// output.
func (d *digest) sum() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := sha256.New()
	for i := 0; i < d.n; i++ {
		p, ok := d.parts[i]
		if !ok {
			return "", fmt.Errorf("digest: op %d produced no output", i)
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
