package sim

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Stream is a named deterministic random-number stream. Every stochastic
// component of the simulation owns a Stream derived from the experiment's
// root seed and the component's name, so that adding a component never
// perturbs the random sequence observed by another.
type Stream struct {
	rng *rand.Rand
	pcg *rand.PCG
}

// NameHash returns the FNV-64a hash NewStream applies to a stream name,
// for callers that Reseed a stream repeatedly under one fixed name.
func NameHash(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// NewStream derives a stream from a root seed and a name.
func NewStream(seed uint64, name string) *Stream {
	pcg := rand.NewPCG(seed, NameHash(name))
	return &Stream{rng: rand.New(pcg), pcg: pcg}
}

// Fork derives a child stream; the child's sequence is independent of
// subsequent draws from the parent.
func (s *Stream) Fork(name string) *Stream {
	pcg := rand.NewPCG(s.rng.Uint64(), NameHash(name))
	return &Stream{rng: rand.New(pcg), pcg: pcg}
}

// Reseed resets the stream in place to the exact sequence
// NewStream(seed, name) would produce, where nameHash = NameHash(name).
// It exists so per-sample mask generation (thousands of short-lived
// streams per epoch) can reuse one Stream instead of allocating.
func (s *Stream) Reseed(seed, nameHash uint64) {
	s.pcg.Seed(seed, nameHash)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform value in [0, n).
func (s *Stream) IntN(n int) int { return s.rng.IntN(n) }

// Int64N returns a uniform value in [0, n).
func (s *Stream) Int64N(n int64) int64 { return s.rng.Int64N(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rng.Uint64() }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle shuffles n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a normally distributed value.
func (s *Stream) Normal(mean, std float64) float64 {
	return mean + std*s.rng.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). Useful for latency distributions,
// which are right-skewed like real interrupt handler times.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.rng.NormFloat64())
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.rng.Float64() < p }

// DurUniform returns a uniform virtual duration in [lo, hi).
func (s *Stream) DurUniform(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(s.rng.Int64N(int64(hi-lo)))
}

// DurExp returns an exponentially distributed duration with the given mean,
// clamped to at least 1 ns so schedules always advance.
func (s *Stream) DurExp(mean Duration) Duration {
	d := Duration(s.rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// SkipDurLogNormal advances the stream exactly as one DurLogNormal call
// does, by one normal draw, without computing the duration.
func (s *Stream) SkipDurLogNormal() { s.rng.NormFloat64() }

// DurLogNormal returns a log-normally distributed duration with the given
// median and sigma (in log space), clamped to [min, max].
func (s *Stream) DurLogNormal(median Duration, sigma float64, min, max Duration) Duration {
	d := Duration(float64(median) * math.Exp(sigma*s.rng.NormFloat64()))
	if d < min {
		d = min
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
