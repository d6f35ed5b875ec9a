package main

import (
	"math"
	"math/rand"
)

// zipf draws item ranks in [0, n) from the YCSB Zipfian distribution
// (Gray et al., "Quickly generating billion-record synthetic databases",
// SIGMOD 1994), the generator YCSB's ZipfianGenerator implements. Rank 0
// is the hottest item and is drawn with probability 1/zeta(n, theta):
// about 7% for n = 300k and theta = 0.99.
//
// math/rand's Zipf is a different law (P(k) ∝ (v+k)^-s with s > 1), so
// feeding it s = 1+theta makes the head far hotter than YCSB's.
type zipf struct {
	rng   *rand.Rand
	n     float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta: the cumulative mass boundary of rank 1
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	zeta2 := zetaSum(2, theta)
	zetan := zetaSum(n, theta)
	return &zipf{
		rng:   rng,
		n:     float64(n),
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

// zetaSum is the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zetaSum(n int, theta float64) float64 {
	var s float64
	for i := 1; i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// next draws one rank.
func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// hottestShare is the probability of rank 0.
func (z *zipf) hottestShare() float64 { return 1 / z.zetan }
