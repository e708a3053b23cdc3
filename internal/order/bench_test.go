package order

import (
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// Ordering benchmarks on a mid-size irregular mesh: the analysis phase the
// paper runs sequentially before every parallel factorization.

func benchPattern(n int) *sparse.Pattern {
	return sparse.PatternOf(gen.IrregularMesh(n, 8, 3, 99))
}

func BenchmarkMinDegExact2k(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinDeg(p)
	}
}

func BenchmarkMinDegApprox2k(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinDegApprox(p)
	}
}

func BenchmarkGraphND2k(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GraphND(p)
	}
}

func BenchmarkHybridND2k(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HybridND(p)
	}
}

func BenchmarkRCM2k(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RCM(p)
	}
}

func BenchmarkNestedDissection2D150(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NestedDissection2D(150)
	}
}

// analysisCases are the matrices the analysis benchmarks of every phase
// run on: the cold-pattern mesh (the BCSSTK31 CI analogue), GRID150 and the
// BCSSTK33 analogue at paper scale.
var analysisCases = []struct {
	name  string
	build func() *sparse.Matrix
}{
	{"cold", func() *sparse.Matrix { return gen.IrregularMesh(2200, 9, 3, 31) }},
	{"grid150", func() *sparse.Matrix { return gen.Grid2D(150) }},
	{"bcsstk33", func() *sparse.Matrix { return gen.IrregularMesh(8738, 16, 3, 33) }},
}

// BenchmarkMinDeg times exact minimum degree, the ordering the solve
// service analyzes every new pattern with.
func BenchmarkMinDeg(b *testing.B) {
	for _, c := range analysisCases {
		b.Run(c.name, func(b *testing.B) {
			p := sparse.PatternOf(c.build())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MinDeg(p)
			}
		})
	}
}
