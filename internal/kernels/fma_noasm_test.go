//go:build !amd64

package kernels

import "testing"

// On non-amd64 builds the dispatch gate is constant-false and dot4x2fma is
// the pure-Go fallback; calling it must never panic.
func TestNoAsmFallbackNeverPanics(t *testing.T) {
	if hasFMA {
		t.Fatal("hasFMA must be false on non-amd64 builds")
	}
	if SetFMA(true) {
		t.Fatal("SetFMA(true) must stay off without assembly support")
	}
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1, 1, 2, 2}
	var out [8]float64
	dot4x2fma(&a[0], &a[2], &a[4], &a[6], &b[0], &b[2], 2, &out)
	if out[0] != 3 { // a0·b0 = 1+2
		t.Fatalf("out[0] = %g, want 3", out[0])
	}

	// The packed-tile entry points have pure-Go stubs too.
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i)
	}
	var pk Pack
	pack8(&src[0], 2, 2, &pk[0]) // eight rows of two: B[j][k] = 2j+k
	if pk[1] != 2 || pk[8] != 1 {
		t.Fatalf("pack8 strip starts %v, want B transposed", pk[:9])
	}
	c := make([]float64, 4*tileCols)
	mulsubStrip(&a[0], 2, &pk[0], 2, &c[0], tileCols, nil, 4, tileCols)
	if c[0] != -2 { // −(a0[0]·B[0][0] + a0[1]·B[0][1]) = −(1·0 + 2·1)
		t.Fatalf("mulsubStrip c[0] = %g, want -2", c[0])
	}
}
