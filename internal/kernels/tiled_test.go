package kernels

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests: every tiled kernel must match its retained naive
// reference to 1e-12 (relative) on randomized shapes, including odd
// remainders, the lower-triangular masked diagonal case, and
// non-contiguous relRow/relCol indirection.

const tiledTol = 1e-12

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= tiledTol*(1+math.Abs(want))
}

// randRel draws n strictly-increasing indices in [0, limit); contig forces
// the consecutive run the fast path detects.
func randRel(rng *rand.Rand, n, limit int, contig bool) []int {
	if contig {
		start := rng.Intn(limit - n + 1)
		rel := make([]int, n)
		for i := range rel {
			rel[i] = start + i
		}
		return rel
	}
	perm := rng.Perm(limit)[:n]
	sort.Ints(perm)
	return perm
}

// bothTiers runs fn once with the FMA micro-kernels selected (where the
// hardware has them) and once on the portable path.
func bothTiers(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{true, false} {
		name := "portable"
		if on {
			name = "fma"
		}
		t.Run(name, func(t *testing.T) {
			prev := SetFMA(on)
			defer SetFMA(prev)
			fn(t)
		})
	}
}

// randRuns draws n strictly increasing indices in [0, limit) made of
// consecutive runs of random length, so strips of eight destination
// columns are sometimes consecutive and sometimes not.
func randRuns(rng *rand.Rand, n, limit int) []int {
	rel := make([]int, 0, n)
	next := 0
	for len(rel) < n {
		run := 1 + rng.Intn(12)
		for i := 0; i < run && len(rel) < n; i++ {
			rel = append(rel, next)
			next++
		}
		if spare := limit - next - (n - len(rel)); spare > 0 {
			next += rng.Intn(min(spare, 3) + 1)
		}
	}
	return rel
}

// randShape draws one BMOD shape: panel widths 1–64 with a share past the
// packed strip depth, and row counts on both sides of the packing cutoff.
func randShape(rng *rand.Rand) (w, ra, rb int) {
	w = 1 + rng.Intn(64)
	if rng.Intn(8) == 0 {
		w = packDepth + 1 + rng.Intn(2*packDepth)
	}
	return w, 1 + rng.Intn(45), 1 + rng.Intn(45)
}

// randMap draws a destination map of n indices in [0, limit): one
// consecutive run, consecutive runs with gaps, or scattered indices.
func randMap(rng *rand.Rand, n, limit int) []int {
	switch rng.Intn(3) {
	case 0:
		return randRel(rng, n, limit, true)
	case 1:
		return randRuns(rng, n, limit)
	}
	return randRel(rng, n, limit, false)
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// Random BMOD shapes on both tiers: panel widths 1–64 and past the packed
// strip depth, row counts on both sides of the packing cutoff and not
// multiples of the tile sizes, and destination maps that are consecutive,
// made of consecutive runs, or scattered.
func TestMulSubMatchesNaiveRandom(t *testing.T) {
	bothTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 400; trial++ {
			w, ra, rb := randShape(rng)
			nrows := ra + rng.Intn(8)
			ldc := rb + rng.Intn(8)
			relRow, relCol := randMap(rng, ra, nrows), randMap(rng, rb, ldc)
			a := randSlice(rng, ra*w)
			b := randSlice(rng, rb*w)
			c := randSlice(rng, nrows*ldc)
			cNaive := append([]float64(nil), c...)
			MulSub(c, ldc, a, ra, b, rb, w, relRow, relCol, false, nil, nil)
			MulSubNaive(cNaive, ldc, a, ra, b, rb, w, relRow, relCol, false, nil, nil)
			for i := range c {
				if !closeEnough(c[i], cNaive[i]) {
					t.Fatalf("trial %d (w=%d ra=%d rb=%d): C[%d]=%g, naive %g",
						trial, w, ra, rb, i, c[i], cNaive[i])
				}
			}
		}
	})
}

// Diagonal destinations come in two forms: the BMOD of a block with itself
// (rowsA = rowsB, the form package numeric issues) and general ascending
// row lists whose mask cuts rows at arbitrary places, including ties,
// which must update.
func TestMulSubLowerMatchesNaiveRandom(t *testing.T) {
	bothTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 300; trial++ {
			w, ra, rb := randShape(rng)
			a := randSlice(rng, ra*w)
			b, rowsA, rowsB := a, []int(nil), []int(nil)
			if trial%2 == 0 {
				rb = ra
				rowsA = randRel(rng, ra, ra+rng.Intn(20), false)
				rowsB = rowsA
			} else {
				b = randSlice(rng, rb*w)
				rowsA = randRel(rng, ra, ra+rb+6, false)
				rowsB = randRel(rng, rb, ra+rb+6, false)
			}
			nrows := ra + rng.Intn(4)
			ldc := rb + rng.Intn(4)
			relRow, relCol := randMap(rng, ra, nrows), randMap(rng, rb, ldc)
			c := randSlice(rng, nrows*ldc)
			cNaive := append([]float64(nil), c...)
			MulSub(c, ldc, a, ra, b, rb, w, relRow, relCol, true, rowsA, rowsB)
			MulSubNaive(cNaive, ldc, a, ra, b, rb, w, relRow, relCol, true, rowsA, rowsB)
			for i := range c {
				if !closeEnough(c[i], cNaive[i]) {
					t.Fatalf("trial %d (w=%d ra=%d rb=%d): C[%d]=%g, naive %g",
						trial, w, ra, rb, i, c[i], cNaive[i])
				}
			}
		}
	})
}

func TestCholeskyMatchesNaive(t *testing.T) {
	// Straddles the blocking threshold: unblocked path, exact multiples of
	// the panel width, and ragged final panels.
	for _, w := range []int{1, 2, 3, 5, 31, 32, 33, 47, 48, 63, 64, 65, 96, 100} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			src := spd(w, w+3)
			tiled := append([]float64(nil), src...)
			naive := append([]float64(nil), src...)
			if err := Cholesky(tiled, w); err != nil {
				t.Fatal(err)
			}
			if err := CholeskyNaive(naive, w); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					got, want := tiled[i*w+j], naive[i*w+j]
					if j > i {
						want = src[i*w+j] // strict upper untouched
					}
					if !closeEnough(got, want) {
						t.Fatalf("L(%d,%d)=%g, naive %g", i, j, got, want)
					}
				}
			}
		})
	}
}

func TestCholeskyBlockedIndefinite(t *testing.T) {
	// A pivot failure inside a later panel must surface through the
	// blocked path too.
	w := choleskyNB + 8
	a := spd(w, 1)
	a[(w-1)*w+(w-1)] = -1
	err := Cholesky(a, w)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	var pe *PivotError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PivotError", err)
	}
	if pe.Row != w-1 || !(pe.Pivot < 0) {
		t.Fatalf("PivotError = %+v, want Row %d with negative pivot", pe, w-1)
	}
}

// BDIV on both tiers, across the FMA tier's width cutoff: every row count
// mod 4 (1–3 trailing rows) and odd and even widths.
func TestSolveRightMatchesNaive(t *testing.T) {
	bothTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, w := range []int{1, 2, 3, 5, 8, solveMinWidth - 1, solveMinWidth, 16, 17, 26, 31, 32, 33, 47, 48, 63, 64} {
			for _, r := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 21, 45, 46, 47} {
				l := spd(w, w+r)
				if err := Cholesky(l, w); err != nil {
					t.Fatal(err)
				}
				x := randSlice(rng, r*w)
				xNaive := append([]float64(nil), x...)
				if err := SolveRight(x, r, l, w); err != nil {
					t.Fatal(err)
				}
				if err := SolveRightNaive(xNaive, r, l, w); err != nil {
					t.Fatal(err)
				}
				for i := range x {
					if !closeEnough(x[i], xNaive[i]) {
						t.Fatalf("w=%d r=%d: X[%d]=%g, naive %g", w, r, i, x[i], xNaive[i])
					}
				}
			}
		}
	})
}

// The dispatcher must agree with the explicitly-routed kernels, so callers
// that classify the destination themselves (package numeric) get the same
// arithmetic as callers going through MulSub.
func TestMulSubDispatchRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w, ra, rb, ldc := 16, 9, 7, 12
	a := randSlice(rng, ra*w)
	b := randSlice(rng, rb*w)

	contigRow := randRel(rng, ra, ra, true)
	contigCol := randRel(rng, rb, ldc, true)
	c1 := randSlice(rng, ra*ldc)
	c2 := append([]float64(nil), c1...)
	MulSub(c1, ldc, a, ra, b, rb, w, contigRow, contigCol, false, nil, nil)
	var pk Pack
	MulSubContig(c2[contigRow[0]*ldc+contigCol[0]:], ldc, a, ra, b, rb, w, &pk)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("contig route diverges at %d: %g vs %g", i, c1[i], c2[i])
		}
	}

	scatRow := []int{0, 2, 3, 5, 6, 8, 9, 10, 11}
	scatCol := []int{0, 1, 3, 4, 7, 8, 11}
	c1 = randSlice(rng, 12*ldc)
	c2 = append([]float64(nil), c1...)
	MulSub(c1, ldc, a, ra, b, rb, w, scatRow, scatCol, false, nil, nil)
	MulSubScattered(c2, ldc, a, ra, b, rb, w, scatRow, scatCol, &pk)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("scattered route diverges at %d: %g vs %g", i, c1[i], c2[i])
		}
	}
}

// The portable register-tiled path must stay correct even on hardware where
// the FMA micro-kernel is selected: every build without AVX2+FMA (and every
// non-amd64 build) runs it.
func TestMulSubPortablePathMatchesNaive(t *testing.T) {
	if !useFMA {
		t.Log("FMA micro-kernel unavailable; main tests already cover the portable path")
		return
	}
	useFMA = false
	defer func() { useFMA = true }()
	TestMulSubMatchesNaiveRandom(t)
	TestMulSubDispatchRoutes(t)
}
