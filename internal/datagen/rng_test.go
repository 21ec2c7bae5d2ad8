package datagen

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// zipfRef is the O(n)-per-draw inversion the cached table replaced: it
// recomputes the normaliser and the partial sums on every draw. It stays
// as the reference the table sampler must match draw for draw.
func zipfRef(r *RNG, n int) int {
	var total float64
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), zipfExponent)
	}
	return zipfRefAt(r.Float64()*total, n)
}

// zipfRefAt is the inversion half of zipfRef for a given u.
func zipfRefAt(u float64, n int) int {
	var cum float64
	for i := 1; i <= n; i++ {
		cum += 1 / math.Pow(float64(i), zipfExponent)
		if u <= cum {
			return i - 1
		}
	}
	return n - 1
}

func TestZipfTableMatchesReference(t *testing.T) {
	const draws = 10_000 // per seed, sweeping n over 1..2048
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			fast, ref := NewRNG(seed), NewRNG(seed)
			for j := 0; j < draws; j++ {
				n := 1 + (j*7919)%2048
				if got, want := fast.zipf(n), zipfRef(ref, n); got != want {
					t.Fatalf("draw %d n=%d: table %d, reference %d", j, n, got, want)
				}
			}
		})
	}
}

func TestZipfSearchBoundaries(t *testing.T) {
	// Draws that land exactly on, just above or at the ends of a partial
	// sum are where a search can disagree with the linear scan.
	for _, n := range []int{1, 2, 3, 4, 10, 16, 40, 200, 800, 1600, 2048} {
		cum := zipfTable(n)[:n]
		check := func(u float64) {
			if got, want := zipfSearch(cum, u), zipfRefAt(u, n); got != want {
				t.Fatalf("n=%d u=%v: table %d, reference %d", n, u, got, want)
			}
		}
		check(0)
		check(cum[n-1])
		check(math.Nextafter(cum[n-1], math.Inf(1)))
		for i := 0; i < n; i += 1 + n/64 {
			check(cum[i])
			check(math.Nextafter(cum[i], math.Inf(1)))
			check(math.Nextafter(cum[i], math.Inf(-1)))
		}
	}
}

func TestSeedHashMatchesDeriveSeed(t *testing.T) {
	keys := []int64{0, 1, -1, 9, 10, 42, -4_000_001, math.MaxInt64, math.MinInt64}
	r := NewRNG(99)
	for i := 0; i < 200; i++ {
		keys = append(keys, int64(r.Uint64()))
	}
	for _, seed := range []uint64{0, 7, 42, r.Uint64(), math.MaxUint64} {
		for _, period := range []int{0, 3, 10_007} {
			g := MustNew(Config{Seed: seed, Datasize: 0.05, Period: period})
			p := fmt.Sprintf("period-%d", period)
			for _, key := range keys {
				want := DeriveSeed(seed, p, "customer", fmt.Sprintf("key-%d", key))
				if got := g.entityRNG("customer", key).state; got != want {
					t.Fatalf("entityRNG seed=%d period=%d key=%d: %#x, want %#x", seed, period, key, got, want)
				}
			}
			for _, i := range []int{0, 1, 199, 1 << 40} {
				want := DeriveSeed(seed, p, "mdm", fmt.Sprint(i))
				if got := g.indexRNG("mdm", i).state; got != want {
					t.Fatalf("indexRNG seed=%d period=%d i=%d: %#x, want %#x", seed, period, i, got, want)
				}
			}
			if got, want := g.rng("europe-companies", "Trondheim").state,
				DeriveSeed(seed, p, "europe-companies", "Trondheim"); got != want {
				t.Fatalf("rng seed=%d period=%d: %#x, want %#x", seed, period, got, want)
			}
		}
	}
}

var sink int

func TestEntityRNGNoAlloc(t *testing.T) {
	g := MustNew(Config{Seed: 42, Datasize: 1, Dist: Skewed})
	key := int64(4_000_001)
	allocs := testing.AllocsPerRun(1000, func() {
		r := g.entityRNG("customer", key)
		sink += r.Intn(200) + r.Index(Skewed, 1600) + r.Index(Uniform, 16)
		key++
	})
	if allocs != 0 {
		t.Fatalf("entityRNG plus draws: %v allocs per run, want 0", allocs)
	}
}

func TestViennaOrderAllocCeiling(t *testing.T) {
	// At d=1 the Vienna candidate pools hold 1 600 customer and 200
	// product keys (~14 KB). Rebuilding them per message, as opposed to
	// reading the per-period pools, blows both ceilings below.
	g := MustNew(Config{Seed: 42, Datasize: 1, Dist: Skewed})
	if allocs := testing.AllocsPerRun(200, func() { _ = g.ViennaOrderEntity(7) }); allocs > 1 {
		t.Errorf("ViennaOrderEntity: %v allocs per message, want <= 1 (the order lines)", allocs)
	}
	const msgs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		_ = g.ViennaOrder(i)
	}
	runtime.ReadMemStats(&after)
	if perMsg := (after.TotalAlloc - before.TotalAlloc) / msgs; perMsg > 6<<10 {
		t.Errorf("ViennaOrder: %d bytes per message, want <= %d", perMsg, 6<<10)
	}
}
