package symbolic

import (
	"fmt"
	"sort"
	"testing"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// The oracles below are the symbolic phase's earlier algorithms, kept to
// pin the faster ones to bit-identical output: column counts by walking
// every row subtree (O(nnz(L))), and supernode row sets built bottom-up as
// the union of each supernode's A-structure with its children's row sets,
// sorted per supernode.

// oracleColCounts returns |L(:,j)| (diagonal included) by marking, for
// every row i, each column on the etree paths from the columns of A(i,:)
// up to i.
func oracleColCounts(m *sparse.Matrix, parent []int) []int {
	n := m.N
	rowPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				rowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rowInd := make([]int, rowPtr[n])
	next := append([]int(nil), rowPtr[:n]...)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				rowInd[next[i]] = j
				next[i]++
			}
		}
	}
	count := make([]int, n)
	mark := make([]int, n)
	for j := range count {
		count[j] = 1
		mark[j] = -1
	}
	for i := 0; i < n; i++ {
		mark[i] = i
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			for r := rowInd[p]; r != -1 && mark[r] != i; r = parent[r] {
				count[r]++
				mark[r] = i
			}
		}
	}
	return count
}

// oracleRows builds every supernode's sorted below-diagonal row set and
// the supernode forest bottom-up.
func oracleRows(m *sparse.Matrix, sns []Supernode, snodeOf []int) (rows [][]int, parent []int) {
	ns := len(sns)
	rows = make([][]int, ns)
	parent = make([]int, ns)
	children := make([][]int, ns)
	mark := make([]int, m.N)
	for i := range mark {
		mark[i] = -1
	}
	for s, sn := range sns {
		last := sn.Last()
		var buf []int
		for j := sn.First; j <= last; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				if r := m.RowInd[p]; r > last && mark[r] != s {
					mark[r] = s
					buf = append(buf, r)
				}
			}
		}
		for _, c := range children[s] {
			for _, r := range rows[c] {
				if r > last && mark[r] != s {
					mark[r] = s
					buf = append(buf, r)
				}
			}
		}
		sort.Ints(buf)
		rows[s] = buf
		parent[s] = -1
		if len(buf) > 0 {
			parent[s] = snodeOf[buf[0]]
			children[parent[s]] = append(children[parent[s]], s)
		}
	}
	return rows, parent
}

// oracleAnalyze is Analyze built from the oracles.
func oracleAnalyze(m *sparse.Matrix, cfg AmalgamationConfig) *Structure {
	tp := etree.Build(m).Parent
	counts := oracleColCounts(m, tp)
	sn := amalgamate(fundamental(tp, counts), tp, counts, cfg)
	st := &Structure{N: m.N, Snodes: sn, SnodeOf: make([]int, m.N), ColCounts: counts}
	for s, x := range sn {
		for j := x.First; j <= x.Last(); j++ {
			st.SnodeOf[j] = s
		}
	}
	st.Rows, st.Parent = oracleRows(m, sn, st.SnodeOf)
	st.Depth = make([]int, len(sn))
	for s := len(sn) - 1; s >= 0; s-- {
		if p := st.Parent[s]; p >= 0 {
			st.Depth[s] = st.Depth[p] + 1
		}
	}
	return st
}

// sameStructure reports the first field where got and want differ.
func sameStructure(got, want *Structure) error {
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	switch {
	case got.N != want.N:
		return fmt.Errorf("N %d, want %d", got.N, want.N)
	case !eq(got.ColCounts, want.ColCounts):
		return fmt.Errorf("ColCounts differ")
	case len(got.Snodes) != len(want.Snodes):
		return fmt.Errorf("%d supernodes, want %d", len(got.Snodes), len(want.Snodes))
	case !eq(got.SnodeOf, want.SnodeOf):
		return fmt.Errorf("SnodeOf differs")
	case !eq(got.Parent, want.Parent):
		return fmt.Errorf("Parent differs")
	case !eq(got.Depth, want.Depth):
		return fmt.Errorf("Depth differs")
	}
	for s := range want.Snodes {
		if got.Snodes[s] != want.Snodes[s] {
			return fmt.Errorf("supernode %d is %+v, want %+v", s, got.Snodes[s], want.Snodes[s])
		}
		if !eq(got.Rows[s], want.Rows[s]) {
			return fmt.Errorf("supernode %d rows %v, want %v", s, got.Rows[s], want.Rows[s])
		}
	}
	return nil
}

// oracleMatrices are postordered matrices under the orderings the paper
// uses: every CI-scale suite matrix under its own ordering, the
// cold-pattern mesh under minimum degree, and small cases with
// disconnected and dense structure.
func oracleMatrices(t *testing.T) map[string]*sparse.Matrix {
	t.Helper()
	ms := testMatrices(t)
	for _, suite := range [][]gen.Problem{gen.Table1Suite(gen.ScaleCI), gen.Table6Suite(gen.ScaleCI)} {
		for _, p := range suite {
			method := order.Natural
			switch p.Hint {
			case gen.HintNDGrid2D:
				method = order.NDGrid2D
			case gen.HintNDCube3D:
				method = order.NDCube3D
			case gen.HintMinDeg:
				method = order.MinDegree
			}
			ms[p.Name] = prep(t, p.Build(), method, p.GridDim)
		}
	}
	ms["mesh2200/amd"] = prep(t, gen.IrregularMesh(2200, 9, 3, 31), order.MinDegreeApprox, 0)
	ms["grid/natural"] = prep(t, gen.Grid2D(12), order.Natural, 0)
	diag, err := sparse.FromTriplets(5, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ms["forest"] = prep(t, diag, order.Natural, 0)
	return ms
}

// TestAnalyzeMatchesOracles pins Snodes, SnodeOf, Rows, Parent, Depth and
// ColCounts to the earlier algorithms under several amalgamation settings.
func TestAnalyzeMatchesOracles(t *testing.T) {
	cfgs := []AmalgamationConfig{NoAmalgamation(), DefaultAmalgamation(), RelativeAmalgamation(0.3), {MaxZeros: 1 << 20}}
	for name, m := range oracleMatrices(t) {
		for _, cfg := range cfgs {
			got, err := Analyze(m, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if err := sameStructure(got, oracleAnalyze(m, cfg)); err != nil {
				t.Errorf("%s %+v: %v", name, cfg, err)
			}
		}
	}
}

// Property: the same agreement on random postordered meshes.
func TestQuickAnalyzeMatchesOracles(t *testing.T) {
	for seed := uint16(0); seed < 40; seed++ {
		m := prepQuick(t, seed, 30+int(seed)*7)
		cfg := AmalgamationConfig{MaxZeros: int64(seed % 64), MaxZeroFrac: float64(seed%20) / 100}
		got, err := Analyze(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStructure(got, oracleAnalyze(m, cfg)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
