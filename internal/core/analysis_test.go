package core

import (
	"math/rand"
	"reflect"
	"testing"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// TestNewPlanMatchesTwoPermutePipeline pins NewPlan's analysis to the
// pipeline that forms the fill-permuted matrix, postorders it by its own
// elimination tree, permutes again and runs the stand-alone symbolic
// phase: the same permutation, permuted matrix, value map and structure.
func TestNewPlanMatchesTwoPermutePipeline(t *testing.T) {
	relabel := func(m *sparse.Matrix) *sparse.Matrix {
		pm, err := m.Permute(rand.New(rand.NewSource(5)).Perm(m.N))
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	cases := []struct {
		name string
		a    *sparse.Matrix
		opts Options
	}{
		{"cold/mindeg", relabel(gen.IrregularMesh(2200, 9, 3, 31)), Options{Ordering: order.MinDegree}},
		{"grid/nd", gen.Grid2D(30), Options{Ordering: order.NDGrid2D, GridDim: 30}},
		{"cube/natural", gen.Cube3D(6), Options{}},
		{"lp/amd", gen.NormalEq(150, 4, 3, 12, 3), Options{Ordering: order.MinDegreeApprox}},
		{"mesh/hybrid", gen.IrregularMesh(400, 6, 3, 8), Options{Ordering: order.NDHybrid}},
	}
	for _, c := range cases {
		p, err := NewPlan(c.a, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fill, err := order.Compute(c.opts.Ordering, c.a, c.opts.GridDim)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := c.a.Permute(fill)
		if err != nil {
			t.Fatal(err)
		}
		perm := fill.Compose(etree.Build(a1).Postorder())
		pa, vmap, err := c.a.PermuteWithMap(perm)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := symbolic.Analyze(pa, symbolic.DefaultAmalgamation())
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !reflect.DeepEqual(p.Perm, perm):
			t.Errorf("%s: permutation differs", c.name)
		case !reflect.DeepEqual(p.PA, pa):
			t.Errorf("%s: permuted matrix differs", c.name)
		case !reflect.DeepEqual(p.ValMap, vmap):
			t.Errorf("%s: value map differs", c.name)
		case !reflect.DeepEqual(p.Sym, sym):
			t.Errorf("%s: symbolic structure differs", c.name)
		}
	}
}
