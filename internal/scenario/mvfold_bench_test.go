package scenario

import (
	"testing"

	"repro/internal/schema"
)

func BenchmarkMVFold(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	db := s.DB(schema.SysDWH)
	seedOrders(b, db.MustTable("Orders"), 20500, 199)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ComputeOrdersMV(db)
		if err != nil || out.Len() == 0 {
			b.Fatal(err)
		}
	}
}
