package core

import (
	"sync"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// analysisCases are the matrices the analysis benchmarks run on: the
// cold-pattern mesh (the BCSSTK31 CI analogue), GRID150 and the BCSSTK33
// analogue at paper scale, each analyzed under minimum degree as the solve
// service does.
var analysisCases = []struct {
	name  string
	build func() *sparse.Matrix
}{
	{"cold", func() *sparse.Matrix { return gen.IrregularMesh(2200, 9, 3, 31) }},
	{"grid150", func() *sparse.Matrix { return gen.Grid2D(150) }},
	{"bcsstk33", func() *sparse.Matrix { return gen.IrregularMesh(8738, 16, 3, 33) }},
}

var (
	analysisOnce     sync.Once
	analysisMatrices []*sparse.Matrix
)

func analysisMatrix(i int) *sparse.Matrix {
	analysisOnce.Do(func() {
		for _, c := range analysisCases {
			analysisMatrices = append(analysisMatrices, c.build())
		}
	})
	return analysisMatrices[i]
}

// BenchmarkNewPlan times the whole analysis of a new pattern: ordering,
// postorder, permutation, symbolic phase and block partition.
func BenchmarkNewPlan(b *testing.B) {
	for i, c := range analysisCases {
		b.Run(c.name, func(b *testing.B) {
			a := analysisMatrix(i)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if _, err := NewPlan(a, Options{Ordering: order.MinDegree}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
