package order

import (
	"math"
	"math/bits"

	"blockfanout/internal/sparse"
)

// MinDeg computes a minimum-degree ordering of the symmetric pattern using
// a quotient graph with external degrees, element absorption, and mass
// elimination of indistinguishable variables (supervariables). This is the
// algorithm family — multiple minimum degree — the paper uses for its
// irregular benchmark matrices. Indistinguishable columns are eliminated
// together, which is also what makes large supernodes appear in the factor.
func MinDeg(p *sparse.Pattern) Permutation {
	return minDeg(p, false)
}

// MinDegApprox is the same quotient-graph elimination with an AMD-style
// upper-bound degree (per-element weights summed without deduplicating
// shared variables) instead of the exact external degree. The cheaper
// update makes it markedly faster on large problems at a small cost in
// ordering quality — the trade modern approximate-minimum-degree codes
// make.
func MinDegApprox(p *sparse.Pattern) Permutation {
	return minDeg(p, true)
}

func minDeg(p *sparse.Pattern, approx bool) Permutation {
	n := p.N
	if n == 0 {
		return Permutation{}
	}
	md := newMinDegState(p)
	for md.eliminated < n {
		md.eliminateOne(approx)
	}
	perm := make(Permutation, 0, n)
	for _, piv := range md.elimSeq {
		for v := piv; v >= 0; v = md.mnext[v] {
			perm = append(perm, v)
		}
	}
	return perm
}

const (
	mdVar      byte = iota // alive variable (supervariable representative)
	mdDeadVar              // variable merged into another supervariable
	mdElem                 // alive element (eliminated pivot)
	mdDeadElem             // element absorbed into another element
)

type minDegState struct {
	n     int
	state []byte
	// w holds supervariable weights, and 0 for every dead variable and
	// every element, so the exact degree sums weights without testing
	// state.
	w     []int
	adjV  [][]int // var → adjacent vars (lazily cleaned)
	adjE  [][]int // var → adjacent elements (lazily cleaned)
	evars [][]int // element → member variables (may contain dead vars)
	deg   []int
	// mnext chains the original vertices merged into a supervariable,
	// starting at its representative; mtail is the chain's last vertex.
	mnext   []int
	mtail   []int
	elimSeq []int
	// degree buckets: doubly-linked lists threaded through dnext/dprev.
	dhead  []int
	dnext  []int
	dprev  []int
	minDeg int
	// markLp[v] is genLp while v is in the current pivot's Lp, and the
	// largest int once v is dead or an element, so markLp[v] < genLp
	// tests "alive and not yet in Lp" in one comparison.
	markLp []int
	genLp  int
	mark2  []int // scratch for degree computation / set comparison
	gen2   int

	eliminated int
	lpBuf      []int    // n slots: Lp is written before it is known to grow
	lpHash     []uint64 // set-hash of the Lp member at the same position
	// slab is the tail of the storage element variable lists are cut
	// from, so creating an element does not allocate.
	slab []int

	// eweight[e] caches |Le| (by weight) at element creation, for the
	// AMD-style upper-bound degree.
	eweight []int
}

func newMinDegState(p *sparse.Pattern) *minDegState {
	n := p.N
	md := &minDegState{
		n:       n,
		state:   make([]byte, n),
		w:       make([]int, n),
		adjV:    make([][]int, n),
		adjE:    make([][]int, n),
		evars:   make([][]int, n),
		deg:     make([]int, n),
		mnext:   make([]int, n),
		mtail:   make([]int, n),
		elimSeq: make([]int, 0, n),
		dhead:   make([]int, n+1),
		dnext:   make([]int, n),
		dprev:   make([]int, n),
		markLp:  make([]int, n),
		mark2:   make([]int, n),
		lpBuf:   make([]int, n),
		lpHash:  make([]uint64, n),
		eweight: make([]int, n),
	}
	for d := range md.dhead {
		md.dhead[d] = -1
	}
	// Variable lists are only ever filtered in place, so they can share
	// one copy of the pattern; element lists start with room for a few
	// elements in one shared slab.
	adj := append([]int(nil), p.RowInd...)
	const elemRoom = 8
	eslab := make([]int, elemRoom*n)
	for i := 0; i < n; i++ {
		lo, hi := p.ColPtr[i], p.ColPtr[i+1]
		md.w[i] = 1
		md.mnext[i] = -1
		md.mtail[i] = i
		md.adjV[i] = adj[lo:hi:hi]
		md.adjE[i] = eslab[elemRoom*i : elemRoom*i : elemRoom*(i+1)]
		md.deg[i] = hi - lo
		md.bucketInsert(i)
	}
	md.minDeg = 0
	return md
}

func (md *minDegState) bucketInsert(i int) {
	d := md.deg[i]
	md.dnext[i] = md.dhead[d]
	md.dprev[i] = -1
	if md.dhead[d] >= 0 {
		md.dprev[md.dhead[d]] = i
	}
	md.dhead[d] = i
	if d < md.minDeg {
		md.minDeg = d
	}
}

func (md *minDegState) bucketRemove(i int) {
	d := md.deg[i]
	if md.dprev[i] >= 0 {
		md.dnext[md.dprev[i]] = md.dnext[i]
	} else {
		md.dhead[d] = md.dnext[i]
	}
	if md.dnext[i] >= 0 {
		md.dprev[md.dnext[i]] = md.dprev[i]
	}
}

// pickMin returns the alive variable of minimum external degree.
func (md *minDegState) pickMin() int {
	for {
		if md.minDeg > md.n {
			panic("order: mindeg bucket scan overflow")
		}
		if h := md.dhead[md.minDeg]; h >= 0 {
			return h
		}
		md.minDeg++
	}
}

// newElement stores lp as a new element's variable list.
func (md *minDegState) newElement(lp []int) []int {
	if cap(md.slab)-len(md.slab) < len(lp) {
		md.slab = make([]int, 0, max(2*cap(md.slab), 4*len(lp), 1024))
	}
	lo := len(md.slab)
	md.slab = append(md.slab, lp...)
	return md.slab[lo:len(md.slab):len(md.slab)]
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch, which lets list compactions run branch-free.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// unmarked returns an all-ones mask when mark is below gen and zero
// otherwise, so a sum can skip marked entries without branching.
func unmarked(mark, gen int) int {
	return (mark - gen) >> (bits.UintSize - 1)
}

func (md *minDegState) eliminateOne(approx bool) {
	p := md.pickMin()
	md.bucketRemove(p)

	// Build Lp, the variables adjacent to p in the quotient graph, and
	// absorb all elements adjacent to p.
	md.genLp++
	g := md.genLp
	markLp := md.markLp
	markLp[p] = math.MaxInt
	lp, k := md.lpBuf, 0
	for _, v := range md.adjV[p] {
		m := markLp[v]
		lp[k] = v
		k += b2i(m < g)
		markLp[v] = max(m, g)
	}
	for _, e := range md.adjE[p] {
		if md.state[e] != mdElem {
			continue
		}
		for _, v := range md.evars[e] {
			m := markLp[v]
			lp[k] = v
			k += b2i(m < g)
			markLp[v] = max(m, g)
		}
		md.state[e] = mdDeadElem
		md.evars[e] = nil
	}
	lp = lp[:k]

	md.state[p] = mdElem
	md.evars[p] = md.newElement(lp)
	md.adjV[p] = nil
	md.adjE[p] = nil
	md.elimSeq = append(md.elimSeq, p)
	md.eliminated += md.w[p]
	md.w[p] = 0
	lpWeight := 0
	for _, v := range lp {
		lpWeight += md.w[v]
	}
	md.eweight[p] = lpWeight

	// Clean adjacency lists of every Lp member: drop dead elements and
	// append the new element p; drop dead variables and variables covered
	// by p (i.e. other Lp members).
	for _, i := range lp {
		md.bucketRemove(i)
		ae, k := md.adjE[i], 0
		for _, e := range ae {
			ae[k] = e
			k += b2i(md.state[e] == mdElem)
		}
		md.adjE[i] = append(ae[:k], p)
		av, k := md.adjV[i], 0
		for _, v := range av {
			av[k] = v
			k += b2i(markLp[v] < g)
		}
		md.adjV[i] = av[:k]
	}

	// Recompute external degrees (exact, or the AMD-style upper bound)
	// and set-hashes for Lp members. Every Lp member is adjacent to the
	// new element p, whose variables are exactly Lp, so the exact degree
	// of i is W(Lp) − w(i) plus the weight of the variables outside Lp
	// that adjV(i) and i's other elements reach. Lp members carry the
	// largest mark while the degrees are summed, which excludes them from
	// every sum (marks only ever rise); each weight is added under a mark
	// mask instead of a branch, and dead variables and elements weigh 0.
	w, mark := md.w, md.mark2
	for _, v := range lp {
		mark[v] = math.MaxInt
	}
	for a, i := range lp {
		md.gen2++
		gen := md.gen2
		d := 0
		var h uint64
		for _, v := range md.adjV[i] {
			d += w[v] & unmarked(mark[v], gen)
			mark[v] = gen
			h += uint64(v)*0x9e3779b97f4a7c15 + 1
		}
		adjE := md.adjE[i]
		for _, e := range adjE {
			h += uint64(e)*0xc2b2ae3d27d4eb4f + 3
		}
		if approx {
			// Upper bound: element weights summed without deduplicating
			// shared variables; each element's list contains i itself,
			// which external degree excludes.
			for _, e := range adjE {
				d += md.eweight[e] - w[i]
			}
		} else {
			// adjE(i) ends with p (appended above).
			d += lpWeight - w[i]
			for _, e := range adjE[:len(adjE)-1] {
				for _, v := range md.evars[e] {
					m := mark[v]
					d += w[v] & unmarked(m, gen)
					mark[v] = max(m, gen)
				}
			}
		}
		if max := md.n - md.eliminated - w[i]; d > max {
			d = max
		}
		if d < 0 {
			d = 0
		}
		md.deg[i] = d
		md.lpHash[a] = h ^ uint64(len(md.adjV[i]))<<32 ^ uint64(len(adjE))
	}
	for _, v := range lp {
		mark[v] = 0
	}

	// Mass elimination: merge indistinguishable Lp members. Group by
	// hash, verify exactly, merge j into i.
	hs := md.lpHash[:len(lp)]
	for a, i := range lp {
		if md.state[i] != mdVar {
			continue
		}
		for b := a + 1; b < len(hs); b++ {
			if hs[b] != hs[a] {
				continue
			}
			j := lp[b]
			if md.state[j] != mdVar {
				continue
			}
			if md.indistinguishable(i, j) {
				md.w[i] += md.w[j]
				md.deg[i] -= md.w[j]
				md.w[j] = 0
				markLp[j] = math.MaxInt
				md.state[j] = mdDeadVar
				md.mnext[md.mtail[i]] = j
				md.mtail[i] = md.mtail[j]
				md.adjV[j] = nil
				md.adjE[j] = nil
			}
		}
	}

	// Reinsert surviving Lp members with their new degrees.
	for _, i := range lp {
		if md.state[i] == mdVar {
			md.bucketInsert(i)
		}
	}
}

// indistinguishable reports whether variables i and j have identical
// quotient-graph adjacency (both lists are clean at call time, and both
// exclude all current-Lp variables, in particular each other).
func (md *minDegState) indistinguishable(i, j int) bool {
	if len(md.adjV[i]) != len(md.adjV[j]) || len(md.adjE[i]) != len(md.adjE[j]) {
		return false
	}
	md.gen2++
	for _, v := range md.adjV[i] {
		md.mark2[v] = md.gen2
	}
	for _, v := range md.adjV[j] {
		if md.mark2[v] != md.gen2 {
			return false
		}
	}
	md.gen2++
	for _, e := range md.adjE[i] {
		md.mark2[e] = md.gen2
	}
	for _, e := range md.adjE[j] {
		if md.mark2[e] != md.gen2 {
			return false
		}
	}
	return true
}
