// Package etree computes the elimination tree of a symmetric sparse matrix
// and the derived quantities used throughout the reproduction: postorder,
// per-column nonzero counts of the Cholesky factor (Gilbert–Ng–Peyton),
// per-node depths (for the paper's Increasing Depth mapping heuristic), and
// per-subtree work (for domain selection).
package etree

import "blockfanout/internal/sparse"

// Tree holds the elimination tree of a matrix.
type Tree struct {
	Parent []int // Parent[j] = etree parent of column j, -1 for roots
	m      *sparse.Matrix
}

// Build computes the elimination tree of the lower-triangular CSC matrix m
// using Liu's algorithm with path compression.
func Build(m *sparse.Matrix) *Tree {
	n := m.N
	ptr, ind := m.LowerRows()
	parent, anc := newLiu(n)
	for i := 0; i < n; i++ {
		for _, r := range ind[ptr[i]:ptr[i+1]] {
			liuLink(parent, anc, r, i)
		}
	}
	return &Tree{Parent: parent, m: m}
}

// PatternParent returns the elimination tree (parent array) of P·A·Pᵀ,
// where p is the graph of A and perm[new] = old, without forming the
// permuted matrix: row k of P·A·Pᵀ holds the neighbours u of perm[k] with
// perm⁻¹(u) < k. The tree is the same as Build's on the permuted matrix.
func PatternParent(p *sparse.Pattern, perm []int) []int {
	n := p.N
	inv := make([]int, n)
	for k, v := range perm {
		inv[v] = k
	}
	parent, anc := newLiu(n)
	for k, v := range perm {
		for _, u := range p.Adj(v) {
			if r := inv[u]; r < k {
				liuLink(parent, anc, r, k)
			}
		}
	}
	return parent
}

func newLiu(n int) (parent, anc []int) {
	parent = make([]int, n)
	anc = make([]int, n)
	for i := range parent {
		parent[i] = -1
		anc[i] = -1
	}
	return parent, anc
}

// liuLink adds the entry A(i,r), r < i, to Liu's algorithm: it climbs
// from r to the root of r's current subtree, compressing the path onto i,
// and makes i that root's parent if it has none.
func liuLink(parent, anc []int, r, i int) {
	for anc[r] != -1 && anc[r] != i {
		next := anc[r]
		anc[r] = i
		r = next
	}
	if anc[r] == -1 {
		anc[r] = i
		parent[r] = i
	}
}

// N returns the number of columns.
func (t *Tree) N() int { return len(t.Parent) }

// Postorder returns a postorder permutation of the tree: po[k] is the k-th
// column in postorder (perm[new] = old semantics). Children are visited in
// increasing column order, so a matrix already ordered by a fill-reducing
// permutation keeps indistinguishable columns adjacent.
func (t *Tree) Postorder() []int { return Postorder(t.Parent) }

// Postorder is Tree.Postorder on a parent array.
func Postorder(parent []int) []int {
	n := len(parent)
	// Build child lists (sorted: iterate columns in decreasing order and
	// prepend via head/next links, yielding increasing order on traversal).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p >= 0 {
			next[j] = head[p]
			head[p] = j
		}
	}
	po := make([]int, 0, n)
	stack := make([]int, 0, 64)
	for root := 0; root < n; root++ {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			// head[v] is v's next unvisited child.
			if c := head[v]; c != -1 {
				head[v] = next[c]
				stack = append(stack, c)
			} else {
				po = append(po, v)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return po
}

// Relabel returns the parent array of the same forest after node perm[k]
// is renamed k (perm[new] = old), e.g. the elimination tree of a matrix
// permuted by its own postorder.
func Relabel(parent, perm []int) []int {
	inv := make([]int, len(perm))
	for k, v := range perm {
		inv[v] = k
	}
	out := make([]int, len(perm))
	for k, v := range perm {
		out[k] = -1
		if p := parent[v]; p >= 0 {
			out[k] = inv[p]
		}
	}
	return out
}

// ColCounts returns, for each column j, the number of nonzeros of L(:,j)
// including the diagonal (see the package function ColCounts).
func (t *Tree) ColCounts() []int { return ColCounts(t.m, t.Parent, t.Postorder()) }

// ColCounts returns |L(:,j)|, diagonal included, for the lower-triangular
// CSC matrix m with elimination tree parent and a postorder post of that
// tree, by the Gilbert–Ng–Peyton algorithm: in O(nnz(A)·α) time it finds,
// for each entry A(i,j), whether j is a leaf of row i's subtree and where
// consecutive leaves' paths meet, and sums those differences up the tree,
// instead of walking every row subtree (O(nnz(L))).
func ColCounts(m *sparse.Matrix, parent, post []int) []int {
	n := m.N
	delta := make([]int, n)
	work := make([]int, 4*n)
	first, maxFirst, prevLeaf, anc := work[:n], work[n:2*n], work[2*n:3*n], work[3*n:]
	for j := 0; j < n; j++ {
		first[j], maxFirst[j], prevLeaf[j], anc[j] = -1, -1, -1, j
	}
	// first[j] is the postorder index of j's first descendant; the first
	// column of each leaf's path gets its diagonal counted.
	for k, j := range post {
		if first[j] == -1 {
			delta[j] = 1
		}
		for ; j != -1 && first[j] == -1; j = parent[j] {
			first[j] = k
		}
	}
	for _, j := range post {
		if p := parent[j]; p != -1 {
			delta[p]--
		}
		for q := m.ColPtr[j]; q < m.ColPtr[j+1]; q++ {
			i := m.RowInd[q]
			// j is a leaf of row i's subtree iff no earlier descendant of
			// j has an entry in row i.
			if i <= j || first[j] <= maxFirst[i] {
				continue
			}
			maxFirst[i] = first[j]
			delta[j]++
			prev := prevLeaf[i]
			prevLeaf[i] = j
			if prev == -1 {
				continue // first leaf of row i's subtree
			}
			// The paths from prev and j to i meet at the least common
			// ancestor of prev and j, counted once already.
			lca := prev
			for lca != anc[lca] {
				lca = anc[lca]
			}
			for s := prev; s != lca; {
				up := anc[s]
				anc[s] = lca
				s = up
			}
			delta[lca]--
		}
		if p := parent[j]; p != -1 {
			anc[j] = p
		}
	}
	// Parents carry larger labels than their children.
	for j := 0; j < n; j++ {
		if p := parent[j]; p != -1 {
			delta[p] += delta[j]
		}
	}
	return delta
}

// Depths returns the depth of every column in the elimination forest; roots
// have depth 0. This is the key of the paper's Increasing Depth heuristic.
func (t *Tree) Depths() []int {
	n := t.N()
	depth := make([]int, n)
	// Parents always have larger indices than children in an elimination
	// tree, so a reverse sweep sees every parent before its children.
	for j := n - 1; j >= 0; j-- {
		if p := t.Parent[j]; p >= 0 {
			depth[j] = depth[p] + 1
		}
	}
	return depth
}

// Stats aggregates the factor statistics the paper's Tables 1 and 6 report.
type Stats struct {
	N     int
	NZinL int64 // off-diagonal nonzeros of L (the paper's "NZ in L")
	Flops int64 // multiply-add operations to factor (≈ Σⱼ c(j)², n³/3 dense)
}

// FactorStats computes nnz(L) and the sequential factorization operation
// count from the column counts (the "best known sequential algorithm"
// numbers used as the Mflops numerator throughout the paper).
func FactorStats(counts []int) Stats {
	var s Stats
	s.N = len(counts)
	for _, c := range counts {
		s.NZinL += int64(c - 1)
		s.Flops += int64(c) * int64(c)
	}
	return s
}

// SubtreeWork returns, for every column, the total work (Σ c(j)² over the
// subtree rooted there). Domain selection splits the elimination forest
// into subtrees of roughly equal subtree work.
func (t *Tree) SubtreeWork(counts []int) []int64 {
	n := t.N()
	work := make([]int64, n)
	for j := 0; j < n; j++ {
		work[j] += int64(counts[j]) * int64(counts[j])
		if p := t.Parent[j]; p >= 0 {
			work[p] += work[j]
		}
	}
	return work
}
