package kernels

import "unsafe"

// The FMA tier of BMOD and BDIV. With the AVX2+FMA micro-kernels selected
// (useFMA), every BMOD shape — contiguous, scattered and lower-masked
// destinations, ragged row and column counts — and every BDIV of a panel
// wide enough to fill vectors runs here; the portable register-tiled Go in
// kernels.go serves the rest and every other build.
//
// Large BMODs run the packed outer-product tile: one 8-column strip of B
// is transposed into a Pack, then mulsubStrip keeps a 6×8 block of C in
// twelve YMM accumulators across the panel dimension, broadcasting one A
// entry per row and loading two vectors of the packed strip per panel
// element. The accumulators are C entries, not partial dot products, so
// nothing is reduced horizontally and the tile is written back once.
// Shapes too small to repay the packing run 4×2 dot-product tiles
// (dot4x2fma) instead.

// Tile geometry of the packed BMOD micro-kernel.
const (
	tileRows  = 6  // C rows per tile: one broadcast A entry each
	tileCols  = 8  // C columns per tile: two YMM vectors of the packed strip
	packDepth = 64 // panel elements per packed strip; wider panels are chunked

	// Panels narrower than fmaMinWidth fill no vector: their BMODs run
	// the portable tier. A BDIV needs a wider panel, solveMinWidth, before
	// its one dot4x2fma call per column pair beats the portable loop.
	fmaMinWidth   = 4
	solveMinWidth = 12

	// A BMOD with fewer rows or columns than these runs the unpacked 4×2
	// tiles: with no full strip, or less than one 4×2 tile of rows,
	// transposing the strip costs more than the packed tile saves.
	packMinRows = 4
	packMinCols = tileCols
)

// Pack is the scratch the packed BMOD kernel transposes one strip of B
// into: entry k·8+j holds B[t+j][k0+k] for one packDepth chunk of the
// panel dimension. Its size is fixed, so a Pack embedded in an executor's
// workspace never grows with the blocks it serves.
type Pack [tileCols * packDepth]float64

// zeroStrip pads a strip narrower than tileCols: its rows read as zero
// columns of B, so a partial strip multiplies as a full one.
var zeroStrip [packDepth]float64

// mulSubFMA is the FMA-tier BMOD: C ← C − A·Bᵀ with product entry (s,t)
// landing at c[row(s)·ldc + col(t)], where row and col are relRow and
// relCol, or the identity when those are nil. Non-nil rowsA/rowsB select
// the lower mask rowsA[s] ≥ rowsB[t] of a diagonal destination.
func mulSubFMA(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol, rowsA, rowsB []int, pk *Pack) {
	if ra == 0 || rb == 0 {
		return
	}
	if ra >= packMinRows && rb >= packMinCols {
		mulSubPacked(c, ldc, a, ra, b, rb, w, relRow, relCol, rowsA, rowsB, pk)
		return
	}
	mulSub4x2(c, ldc, a, ra, b, rb, w, relRow, relCol, rowsA, rowsB)
}

// mulSubPacked sweeps B in strips of tileCols columns (the last one
// possibly narrower). Each strip is packed once per panel chunk and
// multiplied against the rows of A it reaches. When the strip's
// destination columns are consecutive, the rows wholly inside the mask
// are updated in place by one mulsubStrip call. The rows of a
// column-scattered strip, and the masked fringe rows of a diagonal block,
// go through mulSubTile.
func mulSubPacked(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol, rowsA, rowsB []int, pk *Pack) {
	a, b = a[:ra*w], b[:rb*w]
	checkDest(c, ldc, ra, rb, relRow, relCol)
	lower := rowsA != nil
	var tile [tileRows * tileCols]float64
	// Under the lower mask, rows [s0, s1) reach strip t only in part and
	// rows [s1, ra) wholly; rows before s0 not at all.
	s0, s1 := 0, 0
	for t := 0; t < rb; t += tileCols {
		nc := min(tileCols, rb-t)
		if lower {
			for s0 < ra && rowsA[s0] < rowsB[t] {
				s0++
			}
			if s0 == ra {
				return // later strips lie wholly above the diagonal too
			}
			s1 = max(s1, s0)
			for s1 < ra && rowsA[s1] < rowsB[t+nc-1] {
				s1++
			}
		}
		// relCol is strictly increasing, so a span of nc−1 proves the
		// strip's destination columns consecutive.
		col0 := t
		if relCol != nil {
			col0 = relCol[t]
		}
		inPlace := relCol == nil || relCol[t+nc-1]-col0 == nc-1
		for k0 := 0; k0 < w; k0 += packDepth {
			kc := min(packDepth, w-k0)
			packStrip(pk, b, w, t, nc, k0, kc)
			end := ra
			if inPlace {
				end = s1
			}
			for s := s0; s < end; s += tileRows {
				mulSubTile(c, ldc, a, w, k0, kc, pk, s, min(tileRows, end-s), t, nc,
					relRow, relCol, rowsA, rowsB, &tile)
			}
			if end == ra {
				continue
			}
			var rows *int
			base := col0
			if relRow == nil {
				base += end * ldc
			} else {
				rows = &relRow[end:ra][0]
			}
			ao := end*w + k0
			mulsubStrip(&a[ao : ao+(ra-end-1)*w+kc][0], w, &pk[0], kc, &c[base], ldc, rows, ra-end, nc)
		}
	}
}

// mulSubTile applies rows s..s+nr−1 (nr ≤ tileRows) of strip t through a
// local tile: mulsubStrip writes −A·Bᵀ there, and the entries inside the
// lower mask (all of them without one) are added to C through
// relRow/relCol.
func mulSubTile(c []float64, ldc int, a []float64, w, k0, kc int, pk *Pack, s, nr, t, nc int,
	relRow, relCol, rowsA, rowsB []int, tile *[tileRows * tileCols]float64) {
	*tile = [tileRows * tileCols]float64{}
	ao := s*w + k0
	mulsubStrip(&a[ao : ao+(nr-1)*w+kc][0], w, &pk[0], kc, &tile[0], tileCols, nil, nr, tileCols)
	for i := 0; i < nr; i++ {
		n := nc
		if rowsA != nil {
			n = 0
			for n < nc && rowsB[t+n] <= rowsA[s+i] {
				n++
			}
		}
		crow := c[rowOffset(relRow, s+i, ldc):]
		tr := tile[i*tileCols : i*tileCols+n]
		if relCol == nil {
			cr := crow[t : t+n]
			for j, v := range tr {
				cr[j] += v
			}
			continue
		}
		for j, v := range tr {
			crow[relCol[t+j]] += v
		}
	}
}

// checkDest panics, as an out-of-range index would, unless c holds every
// destination entry: mulsubStrip writes C without bounds checks.
func checkDest(c []float64, ldc, ra, rb int, relRow, relCol []int) {
	loR, hiR := extent(relRow, ra)
	loC, hiC := extent(relCol, rb)
	_ = c[loR*ldc+loC]
	_ = c[hiR*ldc+hiC]
}

// extent returns the smallest and largest of rel[:n], or 0 and n−1 for
// the identity map.
func extent(rel []int, n int) (lo, hi int) {
	if rel == nil {
		return 0, n - 1
	}
	lo, hi = rel[0], rel[0]
	for _, v := range rel[1:n] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// rowOffset is the offset of destination row s: relRow[s]·ldc, or s·ldc
// for the identity map.
func rowOffset(relRow []int, s, ldc int) int {
	if relRow == nil {
		return s * ldc
	}
	return relRow[s] * ldc
}

// packStrip transposes columns t..t+nc−1 of B over panel elements
// k0..k0+kc−1 into pk: pk[k·8+j] = B[t+j][k0+k], zero for j ≥ nc.
func packStrip(pk *Pack, b []float64, w, t, nc, k0, kc int) {
	if nc == tileCols {
		o := t*w + k0
		pack8(&b[o : o+(tileCols-1)*w+kc][0], w, kc, &pk[0])
		return
	}
	var rows [tileCols][]float64
	for j := range rows {
		if j < nc {
			o := (t+j)*w + k0
			rows[j] = b[o : o+kc]
		} else {
			rows[j] = zeroStrip[:kc]
		}
	}
	transpose8(pk[:kc*tileCols], &rows)
}

// transpose8 interleaves eight equal-length rows: p[8k+j] = rows[j][k].
func transpose8(p []float64, rows *[tileCols][]float64) {
	r0 := rows[0]
	n := len(r0)
	r1, r2, r3 := rows[1][:n], rows[2][:n], rows[3][:n]
	r4, r5, r6, r7 := rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
	p = p[:n*tileCols]
	for k := range r0 {
		q := p[k*tileCols : k*tileCols+tileCols]
		q[0], q[1], q[2], q[3] = r0[k], r1[k], r2[k], r3[k]
		q[4], q[5], q[6], q[7] = r4[k], r5[k], r6[k], r7[k]
	}
}

// mulSub4x2 is the FMA-tier BMOD for shapes below the packing cutoff:
// dot4x2fma tiles over four A rows and two B rows. An odd last column
// pairs B row t with itself, and the missing rows of a short last group
// alias its last row; both discard the duplicate results. Under the lower
// mask each group runs whole tiles up to the smallest cutoff of its rows
// and finishes the ragged fringe one entry at a time.
func mulSub4x2(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol, rowsA, rowsB []int) {
	var acc [8]float64
	cut := 0 // running lower-mask cutoff: B rows with rowsB[t] ≤ rowsA[s]
	for s := 0; s < ra; s += 4 {
		nr := min(4, ra-s)
		var ap [4]*float64
		var ro, cuts [4]int
		for i := range ap {
			si := s + min(i, nr-1)
			ap[i] = &a[si*w : si*w+w][0]
			ro[i] = rowOffset(relRow, si, ldc)
			cuts[i] = rb
			if rowsA != nil {
				for cut < rb && rowsB[cut] <= rowsA[si] {
					cut++
				}
				cuts[i] = cut
			}
		}
		hi := cuts[0]
		for t := 0; t < hi; t += 2 {
			t1 := min(t+1, hi-1)
			dot4x2fma(ap[0], ap[1], ap[2], ap[3], &b[t*w : t*w+w][0], &b[t1*w : t1*w+w][0], w, &acc)
			j0, j1 := t, t1
			if relCol != nil {
				j0, j1 = relCol[t], relCol[t1]
			}
			for i := 0; i < nr; i++ {
				crow := c[ro[i]:]
				crow[j0] -= acc[2*i]
				if t1 != t {
					crow[j1] -= acc[2*i+1]
				}
			}
		}
		for i := 1; i < nr; i++ {
			as := a[(s+i)*w : (s+i)*w+w]
			crow := c[ro[i]:]
			for t := hi; t < cuts[i]; t++ {
				j := t
				if relCol != nil {
					j = relCol[t]
				}
				crow[j] -= dot(as, b[t*w:t*w+w])
			}
		}
	}
}

// solveRightFMA is the FMA-tier BDIV (see solveRightLD). For each group of
// four right-hand-side rows it solves columns j and j+1 together: one
// dot4x2fma forms all eight sums over the first j solved entries, and the
// 2×2 triangle of L is applied on top, multiplying by the reciprocal of
// each pivot: one division per column instead of four. (The pivots were
// checked before the solve, so the reciprocal is finite.) The missing
// rows of a short last group alias its last row; every read of a step
// precedes its writes, so an aliased row just stores the same value
// twice. An odd last column pairs with itself.
func solveRightFMA(x []float64, r, ldx int, l []float64, n, ldl int) {
	if n == 0 {
		return
	}
	var acc [8]float64
	for s := 0; s < r; s += 4 {
		last := min(s+3, r-1)
		x0 := x[s*ldx : s*ldx+n]
		x1 := x[min(s+1, last)*ldx:][:n]
		x2 := x[min(s+2, last)*ldx:][:n]
		x3 := x[last*ldx:][:n]
		for j := 0; j < n; j += 2 {
			j1 := min(j+1, n-1)
			lj := l[j*ldl : j*ldl+j+1]
			lj1 := l[j1*ldl : j1*ldl+j1+1]
			dot4x2fma(&x0[0], &x1[0], &x2[0], &x3[0], &lj[0], &lj1[0], j, &acc)
			d := 1 / lj[j]
			v0 := (x0[j] - acc[0]) * d
			v1 := (x1[j] - acc[2]) * d
			v2 := (x2[j] - acc[4]) * d
			v3 := (x3[j] - acc[6]) * d
			if j1 != j {
				e, o := 1/lj1[j1], lj1[j]
				u0 := (x0[j1] - acc[1] - v0*o) * e
				u1 := (x1[j1] - acc[3] - v1*o) * e
				u2 := (x2[j1] - acc[5] - v2*o) * e
				u3 := (x3[j1] - acc[7] - v3*o) * e
				x0[j1], x1[j1], x2[j1], x3[j1] = u0, u1, u2, u3
			}
			x0[j], x1[j], x2[j], x3[j] = v0, v1, v2, v3
		}
	}
}

// mulsubStripGeneric is the portable implementation of the mulsubStrip
// contract.
func mulsubStripGeneric(a *float64, lda int, bp *float64, n int, c *float64, ldc int, rows *int, nr int, nc int) {
	p := unsafeSlice(bp, tileCols*n)
	var rs []int
	if rows != nil {
		rs = unsafe.Slice(rows, nr)
	}
	for r := 0; r < nr; r++ {
		ar := unsafeSlice((*float64)(unsafe.Add(unsafe.Pointer(a), 8*r*lda)), n)
		var acc [tileCols]float64
		for k, av := range ar {
			for j, bv := range p[k*tileCols : k*tileCols+tileCols] {
				acc[j] += av * bv
			}
		}
		dr := r
		if rs != nil {
			dr = rs[r]
		}
		cr := unsafeSlice((*float64)(unsafe.Add(unsafe.Pointer(c), 8*dr*ldc)), nc)
		for j := range cr {
			cr[j] -= acc[j]
		}
	}
}

// pack8Generic is the portable implementation of the pack8 contract.
func pack8Generic(b *float64, ldb int, n int, dst *float64) {
	src := unsafeSlice(b, (tileCols-1)*ldb+n)
	var rows [tileCols][]float64
	for j := range rows {
		rows[j] = src[j*ldb : j*ldb+n]
	}
	transpose8(unsafeSlice(dst, tileCols*n), &rows)
}
