package sparse_test

import (
	"math/rand"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// BenchmarkPermuteWithMap times the symmetric permutation NewPlan applies
// to every new pattern (with the value map refactorization reads), under
// the minimum-degree ordering of the cold-pattern mesh, GRID150 and the
// BCSSTK33 analogue.
func BenchmarkPermuteWithMap(b *testing.B) {
	cases := []struct {
		name  string
		build func() *sparse.Matrix
	}{
		{"cold", func() *sparse.Matrix { return gen.IrregularMesh(2200, 9, 3, 31) }},
		{"grid150", func() *sparse.Matrix { return gen.Grid2D(150) }},
		{"bcsstk33", func() *sparse.Matrix { return gen.IrregularMesh(8738, 16, 3, 33) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a := c.build()
			perm, err := order.Compute(order.MinDegree, a, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.PermuteWithMap(perm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPermuteRandom times Permute under a random relabeling, the
// worst case for locality.
func BenchmarkPermuteRandom(b *testing.B) {
	a := gen.IrregularMesh(2200, 9, 3, 31)
	perm := rand.New(rand.NewSource(1)).Perm(a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Permute(perm); err != nil {
			b.Fatal(err)
		}
	}
}
