// Package stats provides deterministic random variate generation and
// summary statistics for the Monte-Carlo checkpoint/restart simulator.
//
// The simulator needs (a) reproducible streams so experiments are stable
// across runs and machines, and (b) independent substreams so failure
// arrivals and recovery-outcome draws do not perturb each other when a
// configuration knob changes. A small, self-contained SplitMix64/xoshiro256**
// implementation provides both without depending on math/rand's global state.
package stats

import "math"

// splitMix64 advances the given state and returns the next output. It is
// used for seeding xoshiro from a single word, as recommended by the
// xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed. Two RNGs with
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new generator seeded from this one's stream. Streams
// produced by distinct Split calls are statistically independent, which lets
// the simulator give each stochastic process (failure arrivals, recovery
// outcomes) its own substream.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method is overkill here; simple modulo
	// bias is negligible for the small n used in workload generation, but
	// rejection sampling keeps the stream exactly uniform anyway.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Exp returns an exponentially distributed variate with the given mean.
// Interrupt arrivals in the model are assumed exponentially distributed
// (paper §6.1.1), so this is the simulator's failure clock.
// It panics if mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp with non-positive mean")
	}
	// -mean * ln(1-u) with u in [0,1) avoids ln(0).
	return -mean * math.Log1p(-r.Float64())
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed variate via the Marsaglia polar
// method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
