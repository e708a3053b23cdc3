package numeric

import (
	"math"
	"testing"

	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
)

// TestReloadMatchesFresh checks that factoring after Reload with new values
// produces exactly the factor a from-scratch New would, and that reloading
// the original values restores the original factor.
func TestReloadMatchesFresh(t *testing.T) {
	m := gen.IrregularMesh(180, 5, 3, 11)
	bs, pm := setup(t, m, ord.MinDegree, 0, 8)

	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err != nil {
		t.Fatal(err)
	}

	// New values on the same pattern: scale off-diagonals, keep diagonal
	// dominance.
	pm2 := pm.Clone()
	for j := 0; j < pm2.N; j++ {
		for p := pm2.ColPtr[j]; p < pm2.ColPtr[j+1]; p++ {
			if pm2.RowInd[p] != j {
				pm2.Val[p] *= 0.5
			}
		}
	}

	if err := f.Reload(pm2.Val); err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(bs, pm2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	for j := range f.Data {
		for bi := range f.Data[j] {
			for i, v := range f.Data[j][bi] {
				if w := fresh.Data[j][bi][i]; v != w && math.Abs(v-w) > 1e-14*math.Abs(w) {
					t.Fatalf("block (%d,%d)[%d]: reloaded %g vs fresh %g", j, bi, i, v, w)
				}
			}
		}
	}
}

func TestReloadErrors(t *testing.T) {
	m := gen.Grid2D(7)
	bs, pm := setup(t, m, ord.NDGrid2D, 7, 4)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reload(pm.Val[:len(pm.Val)-1]); err == nil {
		t.Fatal("Reload accepted a short value slice")
	}
	bare := &Factor{BS: bs}
	if err := bare.Reload(pm.Val); err == nil {
		t.Fatal("Reload accepted a factor without a scatter map")
	}
}

// TestReloadAllocs pins the allocation-free contract of the reload path.
func TestReloadAllocs(t *testing.T) {
	m := gen.Grid2D(12)
	bs, pm := setup(t, m, ord.NDGrid2D, 12, 6)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Reload allocated %.1f times per call; want 0", avg)
	}
}

// TestReloadWhereKeepsChosenBlocks checks ReloadWhere on the one-slab
// storage: kept blocks hold their factored values, every other block holds
// exactly what New scattered into it.
func TestReloadWhereKeepsChosenBlocks(t *testing.T) {
	bs, pm := setup(t, gen.IrregularMesh(180, 5, 3, 13), ord.MinDegree, 0, 8)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	factored := f.ExportBlocks()
	keep := func(j, bi int) bool { return (j+bi)%3 == 0 }
	if err := f.ReloadWhere(pm.Val, keep); err != nil {
		t.Fatal(err)
	}
	id := 0
	for j := range f.Data {
		for bi, got := range f.Data[j] {
			want := fresh.Data[j][bi]
			if keep(j, bi) {
				want = factored[id]
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("block (%d,%d)[%d] = %g, want %g (kept %v)", j, bi, i, got[i], want[i], keep(j, bi))
				}
			}
			id++
		}
	}
}
