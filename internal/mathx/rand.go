// Package mathx provides deterministic random number generation,
// statistical helpers, and probability distributions used throughout the
// ACOBE reproduction. Everything is seeded explicitly so that dataset
// synthesis, model initialization, and experiments are reproducible
// bit-for-bit across runs.
package mathx

import (
	"math"
)

// RNG is a deterministic pseudo-random number generator based on the
// SplitMix64 and xoshiro256** algorithms. It is intentionally independent
// of math/rand so that generated datasets remain stable across Go releases.
//
// The zero value is not useful; construct with NewRNG.
type RNG struct {
	s [4]uint64

	// cached spare Gaussian variate (Box-Muller generates pairs)
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded from the given seed. Distinct seeds
// yield independent-looking streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// ForkNamed derives a child generator whose stream depends on both the
// parent state and the given name, so that the same entity always receives
// the same stream regardless of iteration order.
func (r *RNG) ForkNamed(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ r.s[0])
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntBetween returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("mathx: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation, using the Box-Muller transform.
func (r *RNG) Normal(mean, std float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + std*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + std*u*m
}

// Poisson returns a Poisson variate with rate lambda. For small lambda it
// uses Knuth's multiplication method; for large lambda it falls back to a
// Gaussian approximation (clamped at zero), which is both fast and adequate
// for synthetic activity counts.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	g := r.Normal(lambda, math.Sqrt(lambda))
	if g < 0 {
		return 0
	}
	return int(g + 0.5)
}

// Exponential returns an exponential variate with the given rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exponential with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice.
func Pick[T any](r *RNG, items []T) T {
	return items[r.Intn(len(items))]
}

// Shuffle permutes items in place (Fisher-Yates).
func Shuffle[T any](r *RNG, items []T) {
	for i := len(items) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		items[i], items[j] = items[j], items[i]
	}
}

// WeightedIndex returns an index in [0, len(weights)) chosen proportionally
// to the non-negative weights. If all weights are zero it returns 0.
func (r *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
