package main

import (
	"hash/fnv"

	"kvmarm/internal/isa"
)

// rng is a splitmix64 generator: every input a workload makes comes from
// one, seeded by --seed and the workload's name, so a seed always gives
// the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) u32() uint32 { return uint32(r.u64() >> 32) }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// perm returns the first k entries of a seed-chosen permutation of [0, n).
func (r *rng) perm(n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// asmBytes assembles a program into little-endian guest memory bytes.
func asmBytes(a *isa.Asm) []byte {
	b, err := a.Bytes()
	if err != nil {
		panic(err) // the benchmark's own programs are fixed; a failure is a bug here
	}
	return b
}
