package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tests of the FMA tier (fma.go) beyond the randomized comparisons in
// tiled_test.go: shapes at the packing cutoff, the memory-safety check in
// front of the assembly, and the micro-kernels against their portable
// implementations.

func checkC(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if !closeEnough(got[i], want[i]) {
			t.Fatalf("%s: C[%d]=%g, naive %g", what, i, got[i], want[i])
		}
	}
}

// Shapes on both sides of the packing cutoff, in every destination kind.
func TestMulSubPackingCutoffEdges(t *testing.T) {
	bothTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		var pk Pack
		for _, ra := range []int{packMinRows - 1, packMinRows, packMinRows + 1} {
			for _, rb := range []int{packMinCols - 1, packMinCols, packMinCols + 1} {
				for _, w := range []int{fmaMinWidth - 1, fmaMinWidth, packDepth, packDepth + 1} {
					what := fmt.Sprintf("w=%d ra=%d rb=%d", w, ra, rb)
					a, b := randSlice(rng, ra*w), randSlice(rng, rb*w)
					nrows, ldc := ra+3, rb+3
					relRow, relCol := randRuns(rng, ra, nrows), randRuns(rng, rb, ldc)
					c := randSlice(rng, nrows*ldc)
					want := append([]float64(nil), c...)
					MulSubScattered(c, ldc, a, ra, b, rb, w, relRow, relCol, &pk)
					MulSubNaive(want, ldc, a, ra, b, rb, w, relRow, relCol, false, nil, nil)
					checkC(t, "scattered "+what, c, want)

					c = randSlice(rng, ra*ldc)
					want = append([]float64(nil), c...)
					MulSubContig(c, ldc, a, ra, b, rb, w, &pk)
					MulSubNaive(want, ldc, a, ra, b, rb, w, randRel(rng, ra, ra, true), randRel(rng, rb, rb, true), false, nil, nil)
					checkC(t, "contig "+what, c, want)

					rows := randRel(rng, ra, ra+4, false)
					c = randSlice(rng, nrows*nrows)
					want = append([]float64(nil), c...)
					MulSubLower(c, nrows, a, ra, a, ra, w, relRow, relRow, rows, rows, &pk)
					MulSubNaive(want, nrows, a, ra, a, ra, w, relRow, relRow, true, rows, rows)
					checkC(t, "lower "+what, c, want)
				}
			}
		}
	})
}

// The packed kernel writes C through assembly; a destination C cannot
// hold must fail as an index error does, before anything is written.
func TestMulSubPackedRejectsShortDestination(t *testing.T) {
	if !HasFMA() {
		t.Skip("packed kernel needs the FMA tier")
	}
	w, ra, rb := 8, 12, 16
	a, b := make([]float64, ra*w), make([]float64, rb*w)
	c := make([]float64, ra*rb-1)
	defer func() {
		if recover() == nil {
			t.Fatal("short destination did not panic")
		}
	}()
	var pk Pack
	MulSubContig(c, rb, a, ra, b, rb, w, &pk)
}

// The strip kernel against its portable implementation, including short
// row groups, partial strips and rows scattered through a table. Entries
// of C outside the nr rows and nc columns must come back untouched.
func TestMulsubStripMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(packDepth + 1)
		nr, nc := 1+rng.Intn(3*tileRows+1), 1+rng.Intn(tileCols)
		lda, ldc := n+rng.Intn(3), tileCols+rng.Intn(5)
		a := randSlice(rng, nr*lda+1)
		var pk Pack
		for k := 0; k < n; k++ { // strip columns past nc are zero
			for j := 0; j < nc; j++ {
				pk[k*tileCols+j] = rng.NormFloat64()
			}
		}
		var rows []int
		var rp *int
		cRows := nr
		if trial%2 == 1 {
			cRows = nr + 5
			rows = randRel(rng, nr, cRows, false)
			rp = &rows[0]
		}
		c := randSlice(rng, cRows*ldc)
		want := append([]float64(nil), c...)
		mulsubStrip(&a[0], lda, &pk[0], n, &c[0], ldc, rp, nr, nc)
		mulsubStripGeneric(&a[0], lda, &pk[0], n, &want[0], ldc, rp, nr, nc)
		for i := range c {
			if !closeEnough(c[i], want[i]) {
				t.Fatalf("trial %d (n=%d nr=%d nc=%d rows=%v): C[%d]=%g, generic %g",
					trial, n, nr, nc, rows != nil, i, c[i], want[i])
			}
		}
	}
}

func TestPack8MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 47, 48, packDepth} {
		ldb := n + rng.Intn(4)
		b := randSlice(rng, (tileCols-1)*ldb+n+1)
		var got, want Pack
		pack8(&b[0], ldb, n, &got[0])
		pack8Generic(&b[0], ldb, n, &want[0])
		if got != want {
			t.Fatalf("n=%d: pack8 differs from its portable implementation", n)
		}
		for k := 0; k < n; k++ {
			for j := 0; j < tileCols; j++ {
				if got[k*tileCols+j] != b[j*ldb+k] {
					t.Fatalf("n=%d: strip[%d] = %g, want B[%d][%d] = %g", n, k*tileCols+j, got[k*tileCols+j], j, k, b[j*ldb+k])
				}
			}
		}
	}
}

// SolveRight on buffers too short for the stated shape returns an error,
// as Cholesky does, instead of panicking mid-solve.
func TestSolveRightShortBuffers(t *testing.T) {
	l := spd(2, 1)
	if err := Cholesky(l, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		x    []float64
		r    int
		l    []float64
		w    int
	}{
		{"short x", make([]float64, 3), 2, l, 2},
		{"short l", make([]float64, 4), 2, l[:3], 2},
		{"negative rows", make([]float64, 4), -1, l, 2},
	}
	for _, tc := range cases {
		for _, solve := range []struct {
			name string
			f    func([]float64, int, []float64, int) error
		}{{"tiled", SolveRight}, {"naive", SolveRightNaive}} {
			t.Run(tc.name+"/"+solve.name, func(t *testing.T) {
				x := append([]float64(nil), tc.x...)
				if err := solve.f(x, tc.r, tc.l, tc.w); err == nil {
					t.Fatal("short buffer accepted")
				}
				for i, v := range x {
					if v != tc.x[i] {
						t.Fatalf("x[%d] changed to %g before the error", i, v)
					}
				}
			})
		}
	}
}
