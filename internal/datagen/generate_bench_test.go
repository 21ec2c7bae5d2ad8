package datagen

import (
	"testing"

	"repro/internal/schema"
)

// generatePeriod builds every source dataset of one period, as the
// Initializer does before loading the external systems.
func generatePeriod(tb testing.TB, g *Generator) {
	for _, src := range []string{schema.SysBerlinParis, schema.SysTrondheim} {
		if _, err := g.Europe(src); err != nil {
			tb.Fatal(err)
		}
	}
	for _, src := range []string{schema.SysChicago, schema.SysBaltimore, schema.SysMadison} {
		if _, err := g.TPCH(src); err != nil {
			tb.Fatal(err)
		}
	}
	for _, src := range []string{schema.SysBeijing, schema.SysSeoul, schema.SysHongkong} {
		if _, err := g.Asia(src); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkGeneratePeriod measures one d=1 period of dataset generation
// under each distribution scale factor f.
func BenchmarkGeneratePeriod(b *testing.B) {
	for _, dist := range []Distribution{Uniform, Skewed} {
		b.Run(dist.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generatePeriod(b, MustNew(Config{Seed: 42, Datasize: 1, Dist: dist, Period: i}))
			}
		})
	}
}
