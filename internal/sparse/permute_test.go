package sparse

import (
	"math/rand"
	"sort"
	"testing"
)

// sortPermute is the permutation the package computed before the two-pass
// transpose, kept as an oracle: scatter every entry into its new column,
// then sort each column's (row, value, source) triples by row.
func sortPermute(m *Matrix, perm []int) (*Matrix, []int) {
	n := m.N
	inv := make([]int, n)
	for k, v := range perm {
		inv[v] = k
	}
	type entry struct{ r, src int }
	cols := make([][]entry, n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r, c := inv[m.RowInd[p]], inv[j]
			if r < c {
				r, c = c, r
			}
			cols[c] = append(cols[c], entry{r, p})
		}
	}
	b := &Matrix{N: n, ColPtr: make([]int, n+1)}
	var vmap []int
	for c, es := range cols {
		sort.Slice(es, func(a, b int) bool { return es[a].r < es[b].r })
		for _, e := range es {
			b.RowInd = append(b.RowInd, e.r)
			b.Val = append(b.Val, m.Val[e.src])
			vmap = append(vmap, e.src)
		}
		b.ColPtr[c+1] = len(b.RowInd)
	}
	return b, vmap
}

// randomMatrix returns an n×n symmetric matrix with about deg random
// off-diagonal entries per column and distinct values.
func randomMatrix(t *testing.T, rng *rand.Rand, n, deg int) *Matrix {
	t.Helper()
	var ts []Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, float64(n + i)})
		for k := 0; k < deg; k++ {
			ts = append(ts, Triplet{rng.Intn(n), i, rng.Float64()})
		}
	}
	m, err := FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPermuteMatchesSortOracle pins Permute and PermuteWithMap to the
// sort-based permutation: identical ColPtr, RowInd, Val and value map.
func TestPermuteMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range []struct{ n, deg int }{{1, 0}, {2, 1}, {17, 3}, {300, 6}, {2000, 12}} {
		m := randomMatrix(t, rng, sz.n, sz.deg)
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(sz.n)
			want, wantMap := sortPermute(m, perm)
			got, gotMap, err := m.PermuteWithMap(perm)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			for name, b := range map[string]*Matrix{"PermuteWithMap": got, "Permute": plain} {
				if err := b.Validate(); err != nil {
					t.Fatalf("n=%d %s: %v", sz.n, name, err)
				}
				if !b.SamePattern(want) {
					t.Fatalf("n=%d %s: pattern differs from the sort oracle", sz.n, name)
				}
				for q := range want.Val {
					if b.Val[q] != want.Val[q] {
						t.Fatalf("n=%d %s: Val[%d]=%v, want %v", sz.n, name, q, b.Val[q], want.Val[q])
					}
				}
			}
			for q := range wantMap {
				if gotMap[q] != wantMap[q] {
					t.Fatalf("n=%d: vmap[%d]=%d, want %d", sz.n, q, gotMap[q], wantMap[q])
				}
			}
		}
	}
}
