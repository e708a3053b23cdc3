package etree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// bruteFill computes the exact factor structure of a lower-triangular
// pattern by right-looking elimination on a dense boolean matrix, returning
// per-column counts (incl. diagonal) and etree parents (-1 for roots).
func bruteFill(m *sparse.Matrix) (counts []int, parent []int) {
	n := m.N
	p := make([][]bool, n)
	for i := range p {
		p[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for q := m.ColPtr[j]; q < m.ColPtr[j+1]; q++ {
			p[m.RowInd[q]][j] = true
		}
	}
	counts = make([]int, n)
	parent = make([]int, n)
	for j := 0; j < n; j++ {
		var s []int
		for i := j + 1; i < n; i++ {
			if p[i][j] {
				s = append(s, i)
			}
		}
		counts[j] = len(s) + 1
		if len(s) == 0 {
			parent[j] = -1
		} else {
			parent[j] = s[0]
		}
		for a := 0; a < len(s); a++ {
			for b := a + 1; b < len(s); b++ {
				p[s[b]][s[a]] = true
			}
		}
	}
	return counts, parent
}

func matrices(t *testing.T) map[string]*sparse.Matrix {
	t.Helper()
	return map[string]*sparse.Matrix{
		"grid":  gen.Grid2D(7),
		"cube":  gen.Cube3D(3),
		"mesh":  gen.IrregularMesh(80, 4, 3, 2),
		"dense": gen.Dense(15),
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	for name, m := range matrices(t) {
		wantCounts, wantParent := bruteFill(m)
		tr := Build(m)
		for j := 0; j < m.N; j++ {
			if tr.Parent[j] != wantParent[j] {
				t.Fatalf("%s: parent[%d]=%d, want %d", name, j, tr.Parent[j], wantParent[j])
			}
		}
		counts := tr.ColCounts()
		for j := 0; j < m.N; j++ {
			if counts[j] != wantCounts[j] {
				t.Fatalf("%s: count[%d]=%d, want %d", name, j, counts[j], wantCounts[j])
			}
		}
	}
}

func TestParentAlwaysLarger(t *testing.T) {
	for name, m := range matrices(t) {
		tr := Build(m)
		for j, p := range tr.Parent {
			if p != -1 && p <= j {
				t.Fatalf("%s: parent[%d]=%d not larger", name, j, p)
			}
		}
	}
}

func TestPostorderIsPermutationAndChildrenFirst(t *testing.T) {
	for name, m := range matrices(t) {
		tr := Build(m)
		po := tr.Postorder()
		seen := make([]bool, m.N)
		pos := make([]int, m.N)
		for k, v := range po {
			if v < 0 || v >= m.N || seen[v] {
				t.Fatalf("%s: invalid postorder", name)
			}
			seen[v] = true
			pos[v] = k
		}
		for j, p := range tr.Parent {
			if p != -1 && pos[p] <= pos[j] {
				t.Fatalf("%s: parent %d visited before child %d", name, p, j)
			}
		}
	}
}

func TestPostorderSubtreesContiguous(t *testing.T) {
	// In a postorder, every subtree occupies a contiguous range ending at
	// its root. Verify via subtree sizes.
	m := gen.Grid2D(8)
	tr := Build(m)
	po := tr.Postorder()
	size := make([]int, m.N)
	for j := 0; j < m.N; j++ {
		size[j] = 1
	}
	for j := 0; j < m.N; j++ {
		if p := tr.Parent[j]; p != -1 {
			size[p] += size[j]
		}
	}
	pos := make([]int, m.N)
	for k, v := range po {
		pos[v] = k
	}
	for j := 0; j < m.N; j++ {
		// All descendants of j must lie in (pos[j]-size[j], pos[j]].
		if p := tr.Parent[j]; p != -1 {
			if pos[j] >= pos[p] || pos[j] < pos[p]-size[p]+1 {
				t.Fatalf("child %d at %d outside parent %d range (%d,%d]",
					j, pos[j], p, pos[p]-size[p], pos[p])
			}
		}
	}
}

func TestDepths(t *testing.T) {
	// Chain matrix: tridiagonal → etree is a path, depth[j] = n-1-j.
	n := 9
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
		}
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	tr := Build(m)
	d := tr.Depths()
	for j := 0; j < n; j++ {
		if d[j] != n-1-j {
			t.Fatalf("depth[%d]=%d, want %d", j, d[j], n-1-j)
		}
	}
}

func TestDepthsRootZeroAndMonotone(t *testing.T) {
	m := gen.IrregularMesh(60, 4, 3, 8)
	tr := Build(m)
	d := tr.Depths()
	for j, p := range tr.Parent {
		if p == -1 {
			if d[j] != 0 {
				t.Fatalf("root %d depth %d", j, d[j])
			}
		} else if d[j] != d[p]+1 {
			t.Fatalf("depth[%d]=%d, parent depth %d", j, d[j], d[p])
		}
	}
}

func TestFactorStatsDense(t *testing.T) {
	n := 10
	counts := make([]int, n)
	for j := range counts {
		counts[j] = n - j
	}
	s := FactorStats(counts)
	if s.NZinL != int64(n*(n-1)/2) {
		t.Fatalf("NZinL=%d", s.NZinL)
	}
	want := int64(0)
	for j := 0; j < n; j++ {
		c := int64(n - j)
		want += c * c
	}
	if s.Flops != want {
		t.Fatalf("Flops=%d, want %d", s.Flops, want)
	}
}

func TestSubtreeWork(t *testing.T) {
	m := gen.Grid2D(6)
	tr := Build(m)
	counts := tr.ColCounts()
	work := tr.SubtreeWork(counts)
	// Roots' subtree work must sum to the total.
	var total, rootSum int64
	for j, c := range counts {
		total += int64(c) * int64(c)
		if tr.Parent[j] == -1 {
			rootSum += work[j]
		}
	}
	if total != rootSum {
		t.Fatalf("root subtree work %d != total %d", rootSum, total)
	}
	// Monotone: child subtree work < parent subtree work.
	for j, p := range tr.Parent {
		if p != -1 && work[j] >= work[p] {
			t.Fatalf("subtree work not monotone at %d", j)
		}
	}
}

// Property: ColCounts sums to nnz(L) computed by brute force on random
// small meshes, and every count is at least 1.
func TestQuickColCounts(t *testing.T) {
	f := func(seed uint16) bool {
		n := 20 + int(seed%40)
		m := gen.IrregularMesh(n, 3, 2, uint64(seed)*7+1)
		want, _ := bruteFill(m)
		got := Build(m).ColCounts()
		for j := range got {
			if got[j] != want[j] || got[j] < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// rowSubtreeCounts is the column count the package computed before
// Gilbert–Ng–Peyton, kept as an oracle: for every row i it marks each
// column on the etree paths from the columns of A(i,:) up to i, O(nnz(L)).
func rowSubtreeCounts(m *sparse.Matrix, parent []int) []int {
	n := m.N
	rows := make([][]int, n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				rows[i] = append(rows[i], j)
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
		for _, r := range rows[i] {
			for ; r != -1 && mark[r] != i; r = parent[r] {
				count[r]++
				mark[r] = i
			}
		}
	}
	return count
}

// oracleMatrices are unpermuted, relabeled and postordered matrices: the
// Gilbert–Ng–Peyton counts must not depend on the labeling.
func oracleMatrices(t *testing.T) map[string]*sparse.Matrix {
	t.Helper()
	ms := matrices(t)
	relabel := func(m *sparse.Matrix, seed int64) *sparse.Matrix {
		pm, err := m.Permute(rand.New(rand.NewSource(seed)).Perm(m.N))
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	ms["mesh2200"] = gen.IrregularMesh(2200, 9, 3, 31)
	ms["mesh2200/relabel"] = relabel(ms["mesh2200"], 1)
	ms["lp/relabel"] = relabel(gen.NormalEq(200, 4, 3, 20, 5), 2)
	ms["grid/relabel"] = relabel(gen.Grid2D(20), 3)
	post, err := ms["mesh2200/relabel"].Permute(Build(ms["mesh2200/relabel"]).Postorder())
	if err != nil {
		t.Fatal(err)
	}
	ms["mesh2200/postordered"] = post
	return ms
}

func TestColCountsMatchRowSubtrees(t *testing.T) {
	for name, m := range oracleMatrices(t) {
		tr := Build(m)
		want := rowSubtreeCounts(m, tr.Parent)
		got := tr.ColCounts()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: count[%d]=%d, want %d", name, j, got[j], want[j])
			}
		}
	}
}

// PatternParent must give the tree Build gives on the permuted matrix,
// and Relabel the tree of the matrix permuted again by a postorder.
func TestPatternParentAndRelabel(t *testing.T) {
	for name, m := range oracleMatrices(t) {
		perm := rand.New(rand.NewSource(int64(m.N))).Perm(m.N)
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		want := Build(pm).Parent
		got := PatternParent(sparse.PatternOf(m), perm)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: PatternParent[%d]=%d, want %d", name, j, got[j], want[j])
			}
		}
		po := Postorder(got)
		ppm, err := pm.Permute(po)
		if err != nil {
			t.Fatal(err)
		}
		want = Build(ppm).Parent
		rel := Relabel(got, po)
		for j := range want {
			if rel[j] != want[j] {
				t.Fatalf("%s: Relabel[%d]=%d, want %d", name, j, rel[j], want[j])
			}
		}
		for k, v := range Postorder(rel) {
			if v != k {
				t.Fatalf("%s: postorder of a postordered tree moves %d to %d", name, v, k)
			}
		}
	}
}
