// Package datagen implements the data-generation half of the DIPBench
// Initializer: deterministic pseudo-random generation of synthetic source
// system datasets and XML messages, with selectable value distributions
// (the discrete scale factor "distribution f" of the benchmark: "from
// uniformly distributed data values to specially skewed data values"),
// scaled by the continuous scale factor "datasize d", and with controlled
// error injection for the error-prone San Diego application and for the
// master-data cleansing processes.
package datagen

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is deliberately not math/rand so that generated
// datasets are stable across Go versions; benchmark verification depends
// on re-deriving the exact same data.
type RNG struct{ state uint64 }

// NewRNG creates a generator from a seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// DeriveSeed mixes a base seed with domain labels so that every
// (period, source, table) combination gets an independent stream.
func DeriveSeed(base uint64, labels ...string) uint64 {
	h := newSeedHash(base)
	for _, l := range labels {
		h = h.label(l)
	}
	return uint64(h)
}

// seedHash is the running state of DeriveSeed: each label's bytes are
// xor-multiplied in, then a 0xFF terminator separates it from the next.
// Generators fold labels into it piecewise (a fixed prefix, then decimal
// digits) so hot paths derive seeds without formatting label strings; the
// bytes folded are exactly those of the formatted label.
type seedHash uint64

const seedPrime = 0x100000001B3

func newSeedHash(base uint64) seedHash { return seedHash(base ^ 0x9E3779B97F4A7C15) }

// write folds label bytes without ending the label.
func (h seedHash) write(s string) seedHash {
	for i := 0; i < len(s); i++ {
		h ^= seedHash(s[i])
		h *= seedPrime
	}
	return h
}

// end terminates the current label.
func (h seedHash) end() seedHash {
	h ^= 0xFF
	h *= seedPrime
	return h
}

// label folds one complete label.
func (h seedHash) label(s string) seedHash { return h.write(s).end() }

// intLabel folds the label prefix+strconv.FormatInt(v, 10).
func (h seedHash) intLabel(prefix string, v int64) seedHash {
	var buf [20]byte // len("-9223372036854775808")
	h = h.write(prefix)
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h ^= seedHash(c)
		h *= seedPrime
	}
	return h.end()
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("datagen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("datagen: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard-normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Distribution selects how discrete choices (keys, categories) are drawn —
// the benchmark's scale factor f.
type Distribution uint8

// Supported distributions.
const (
	// Uniform draws all values with equal probability.
	Uniform Distribution = iota
	// Skewed draws values Zipf-distributed (s≈1.2): few hot values
	// dominate, modelling real-world key popularity.
	Skewed
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Skewed:
		return "skewed"
	default:
		return "?"
	}
}

// ParseDistribution parses "uniform" or "skewed".
func ParseDistribution(s string) (Distribution, bool) {
	switch s {
	case "uniform":
		return Uniform, true
	case "skewed":
		return Skewed, true
	default:
		return Uniform, false
	}
}

// zipfExponent is the fixed skew parameter used by the Skewed distribution.
const zipfExponent = 1.2

// Index draws an index in [0, n) according to the distribution. For
// Skewed, index 0 is the most popular.
func (r *RNG) Index(d Distribution, n int) int {
	if n <= 0 {
		panic("datagen: Index with non-positive n")
	}
	switch d {
	case Skewed:
		return r.zipf(n)
	default:
		return r.Intn(n)
	}
}

// zipf draws a Zipf(s=zipfExponent) index in [0, n) by inversion over the
// harmonic partial sums cum[i] = Σ_{j=1..i+1} j^-s: u is uniform in
// [0, cum[n-1]) and the draw is the first i with u <= cum[i]. The partial
// sums do not depend on n (a table for n is a prefix of the table for any
// larger n), so one shared, append-only table serves every call site and a
// draw is a binary search. The table is summed in index order with the
// expression below; that order fixes every float, so it is part of the
// digest contract.
func (r *RNG) zipf(n int) int {
	cum := zipfTable(n)[:n]
	return zipfSearch(cum, r.Float64()*cum[n-1])
}

// zipfSearch returns the first i with u <= cum[i], or len(cum)-1 if none.
func zipfSearch(cum []float64, u float64) int {
	lo, hi := 0, len(cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u <= cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return min(lo, len(cum)-1)
}

// zipfCum holds the published partial sums; a longer table replaces it
// whole, so readers never see one being written.
var (
	zipfCum  atomic.Pointer[[]float64]
	zipfGrow sync.Mutex
)

// zipfTable returns the partial-sum table with at least n entries.
func zipfTable(n int) []float64 {
	if t := zipfCum.Load(); t != nil && len(*t) >= n {
		return *t
	}
	zipfGrow.Lock()
	defer zipfGrow.Unlock()
	var old []float64
	if t := zipfCum.Load(); t != nil {
		if len(*t) >= n {
			return *t
		}
		old = *t
	}
	cum := make([]float64, max(n, 2*len(old)))
	copy(cum, old)
	var c float64
	if len(old) > 0 {
		c = old[len(old)-1]
	}
	for i := len(old); i < len(cum); i++ {
		c += 1 / math.Pow(float64(i+1), zipfExponent)
		cum[i] = c
	}
	zipfCum.Store(&cum)
	return cum
}
