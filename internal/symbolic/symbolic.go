// Package symbolic performs the symbolic phase of sparse Cholesky
// factorization: fundamental supernode detection, relaxed supernode
// amalgamation (Ashcraft–Grimes style, which the paper applies to increase
// block regularity), and computation of the supernodal row structures that
// the block partitioning is built on.
//
// Input matrices must already be permuted by a fill-reducing ordering and
// postordered by their elimination tree (see core.NewPlan for the driver
// that arranges this), so that supernodes occupy contiguous column ranges.
package symbolic

import (
	"fmt"

	"blockfanout/internal/etree"
	"blockfanout/internal/sparse"
)

// Supernode is a contiguous range of factor columns sharing (after
// amalgamation: approximately sharing) one below-diagonal row structure.
type Supernode struct {
	First int // first column
	Width int // number of columns
}

// Last returns the last column of the supernode.
func (s Supernode) Last() int { return s.First + s.Width - 1 }

// AmalgamationConfig controls relaxed supernode merging. A child supernode
// immediately preceding its parent is merged when the CUMULATIVE number of
// explicit zeros stored by the merged supernode (relative to the exact
// fundamental supernodes it absorbs) is small in absolute terms or relative
// to the merged supernode's size. Bounding cumulative rather than
// incremental waste prevents chains of merges from compounding.
type AmalgamationConfig struct {
	// MaxZeros merges whenever the merged supernode stores at most this
	// many explicit zeros in total.
	MaxZeros int64
	// MaxZeroFrac merges whenever total zeros/(merged entries) stays
	// below it.
	MaxZeroFrac float64
}

// DefaultAmalgamation mirrors the mild relaxation used in the paper's
// experimental setup: merges that waste little storage but grow supernodes
// past the tiny sizes minimum-degree orderings otherwise produce.
func DefaultAmalgamation() AmalgamationConfig {
	return AmalgamationConfig{MaxZeros: 16, MaxZeroFrac: 0.10}
}

// NoAmalgamation disables merging entirely (exact fundamental supernodes).
func NoAmalgamation() AmalgamationConfig {
	return AmalgamationConfig{MaxZeros: 0, MaxZeroFrac: 0}
}

// RelativeAmalgamation builds the config the structure-aware irregular
// blocking strategy drives its merging with: a pure relative-fill threshold
// (explicit zeros may make up at most frac of the merged supernode's
// entries) plus the small absolute floor of DefaultAmalgamation, so tiny
// supernodes near the leaves still merge when the fraction alone would
// round to nothing. frac outside (0, 1) falls back to the default 0.10.
func RelativeAmalgamation(frac float64) AmalgamationConfig {
	if frac <= 0 || frac >= 1 {
		frac = DefaultAmalgamation().MaxZeroFrac
	}
	return AmalgamationConfig{MaxZeros: DefaultAmalgamation().MaxZeros, MaxZeroFrac: frac}
}

// Structure is the result of the symbolic phase.
type Structure struct {
	N       int
	Snodes  []Supernode
	SnodeOf []int   // column → supernode index
	Rows    [][]int // supernode → sorted below-diagonal row indices (rows > Last())
	Parent  []int   // supernode elimination forest (-1 for roots)
	Depth   []int   // supernode depth in that forest (roots at 0)

	ColCounts []int // exact per-column counts of L (pre-amalgamation)
}

// NNZ returns the number of stored factor entries implied by the (possibly
// relaxed) supernodal structure, excluding the diagonal.
func (st *Structure) NNZ() int64 {
	var nz int64
	for s, sn := range st.Snodes {
		w, b := int64(sn.Width), int64(len(st.Rows[s]))
		nz += w*(w-1)/2 + w*b
	}
	return nz
}

// Flops returns the factorization operation count implied by the stored
// (relaxed) structure: Σ over columns of (entries at or below diagonal)².
func (st *Structure) Flops() int64 {
	var f int64
	for s, sn := range st.Snodes {
		w, b := int64(sn.Width), int64(len(st.Rows[s]))
		// column k of the supernode (0-based) holds (w-k)+b entries.
		for k := int64(0); k < w; k++ {
			c := w - k + b
			f += c * c
		}
	}
	return f
}

// Analyze runs the symbolic phase on a permuted, postordered matrix.
func Analyze(m *sparse.Matrix, cfg AmalgamationConfig) (*Structure, error) {
	return AnalyzeTree(m, etree.Build(m).Parent, cfg)
}

// AnalyzeTree is Analyze for a caller that already holds m's elimination
// tree (parent[j] = etree parent of column j, -1 for roots). It runs in
// about O(nnz(A) + Σ|Rows|): Gilbert–Ng–Peyton column counts, supernode
// detection and amalgamation, then one sweep over the rows that builds
// every supernode's row set already sorted.
func AnalyzeTree(m *sparse.Matrix, parent []int, cfg AmalgamationConfig) (*Structure, error) {
	if len(parent) != m.N {
		return nil, fmt.Errorf("symbolic: elimination tree has %d columns, matrix %d", len(parent), m.N)
	}
	counts := etree.ColCounts(m, parent, etree.Postorder(parent))
	sn := fundamental(parent, counts)
	sn = amalgamate(sn, parent, counts, cfg)
	st := &Structure{
		N:         m.N,
		Snodes:    sn,
		SnodeOf:   make([]int, m.N),
		ColCounts: counts,
	}
	for i, s := range sn {
		for j := s.First; j <= s.Last(); j++ {
			st.SnodeOf[j] = i
		}
	}
	st.buildRows(m)
	st.Depth = make([]int, len(sn))
	for s := len(sn) - 1; s >= 0; s-- {
		if p := st.Parent[s]; p >= 0 {
			st.Depth[s] = st.Depth[p] + 1
		}
	}
	return st, nil
}

// fundamental detects maximal supernodes: column j+1 extends the supernode
// of column j iff parent(j) = j+1 and count(j+1) = count(j) − 1 (nested
// structure).
func fundamental(parent, counts []int) []Supernode {
	n := len(parent)
	var sns []Supernode
	if n == 0 {
		return sns
	}
	first := 0
	for j := 1; j < n; j++ {
		if parent[j-1] == j && counts[j] == counts[j-1]-1 {
			continue
		}
		sns = append(sns, Supernode{First: first, Width: j - first})
		first = j
	}
	sns = append(sns, Supernode{First: first, Width: n - first})
	return sns
}

// amSn is a supernode candidate during amalgamation: its current column
// range, its estimated below-diagonal row count b (treated dense once
// merged), and the exact entry count of the fundamental supernodes it has
// absorbed (used to bound cumulative waste).
type amSn struct {
	first, width int
	b            int64
	exactNZ      int64
}

func trapNZ(w, r int64) int64 { return w*r - w*(w-1)/2 }

// amalgamate greedily merges each supernode with the immediately preceding
// one when that predecessor is its child in the supernode elimination
// forest and the merged supernode's cumulative zero padding stays within
// the config's bounds. A stack-based sweep lets merges cascade up chains of
// small supernodes without compounding waste (the bound always compares
// against the exact entry count of everything absorbed).
func amalgamate(sns []Supernode, parent, counts []int, cfg AmalgamationConfig) []Supernode {
	stack := make([]amSn, 0, len(sns))
	for _, s := range sns {
		w, b := int64(s.Width), int64(counts[s.First]-s.Width)
		cur := amSn{first: s.First, width: s.Width, b: b, exactNZ: trapNZ(w, w+b)}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			// c is cur's child iff the parent column of c's last
			// column lies within cur's (current) column range.
			pcol := parent[c.first+c.width-1]
			if pcol < cur.first || pcol >= cur.first+cur.width {
				break
			}
			wm := int64(c.width + cur.width)
			rm := wm + cur.b
			exact := c.exactNZ + cur.exactNZ
			zeros := trapNZ(wm, rm) - exact
			ok := zeros <= cfg.MaxZeros ||
				(cfg.MaxZeroFrac > 0 && float64(zeros) <= cfg.MaxZeroFrac*float64(trapNZ(wm, rm)))
			if !ok {
				break
			}
			cur = amSn{first: c.first, width: c.width + cur.width, b: cur.b, exactNZ: exact}
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, cur)
	}
	out := make([]Supernode, len(stack))
	for i, s := range stack {
		out[i] = Supernode{First: s.first, Width: s.width}
	}
	return out
}

// buildRows computes each supernode's below-diagonal row set and the
// supernode forest. Row i of the (relaxed) factor reaches supernode s when
// some column j < i of A(i,:) lies in s or in a descendant of s, and i lies
// beyond s's columns: the row subtree of i, walked over the supernode
// forest. The forest parent of s is the supernode containing s's smallest
// row, which guarantees every block update's destination block exists (see
// DESIGN.md). Sweeping the rows in increasing order appends each row set
// already sorted, and the first row a supernode receives fixes its parent
// before any walk needs it. The sweep runs twice, to count and then to
// fill one slab.
func (st *Structure) buildRows(m *sparse.Matrix) {
	n, ns := st.N, len(st.Snodes)
	ptr, ind := m.LowerRows()

	st.Parent = make([]int, ns)
	mark := make([]int, ns)
	off := make([]int, ns+1)
	for s := range mark {
		st.Parent[s] = -1
		mark[s] = -1
	}
	// sweep calls visit(s, i) for every supernode s whose row set holds
	// row i, rows in increasing order.
	sweep := func(visit func(s, i int)) {
		for i := 0; i < n; i++ {
			si := st.SnodeOf[i]
			for _, j := range ind[ptr[i]:ptr[i+1]] {
				for s := st.SnodeOf[j]; s != si && mark[s] != i; s = st.Parent[s] {
					mark[s] = i
					visit(s, i)
				}
			}
		}
	}
	sweep(func(s, i int) {
		if off[s+1] == 0 {
			st.Parent[s] = st.SnodeOf[i]
		}
		off[s+1]++
	})
	for s := 0; s < ns; s++ {
		off[s+1] += off[s]
		mark[s] = -1
	}
	slab := make([]int, off[ns])
	fill := append([]int(nil), off[:ns]...)
	sweep(func(s, i int) {
		slab[fill[s]] = i
		fill[s]++
	})
	st.Rows = make([][]int, ns)
	for s := range st.Rows {
		st.Rows[s] = slab[off[s]:off[s+1]:off[s+1]]
	}
}
