package symbolic

import (
	"testing"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// BenchmarkAnalyzeTree times the symbolic phase as NewPlan runs it (the
// elimination tree in hand) on the minimum-degree-ordered, postordered
// cold-pattern mesh, GRID150 and BCSSTK33 analogue.
func BenchmarkAnalyzeTree(b *testing.B) {
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
			fill, err := order.Compute(order.MinDegree, a, 0)
			if err != nil {
				b.Fatal(err)
			}
			a1, err := a.Permute(fill)
			if err != nil {
				b.Fatal(err)
			}
			pa, err := a1.Permute(etree.Build(a1).Postorder())
			if err != nil {
				b.Fatal(err)
			}
			parent := etree.Build(pa).Parent
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeTree(pa, parent, DefaultAmalgamation()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
