package numeric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"blockfanout/internal/blocks"
)

// bmodPlan is the precompiled BMOD plan of one block structure: where each
// BMOD pairing's update lands in a factor's value slab. The structure alone
// determines it, so it is built once per structure (memoized through
// blocks.Structure.Derived) and shared by every factor of that structure;
// BMOD then does no row-list merging and no block search.
//
// The slab holds every block of the factor packed in (column, block-index)
// order; colOff[j] is where column j's blocks begin. Pairing (ia ≥ jb ≥ 1)
// of column k — sources Blocks[ia] and Blocks[jb], destination (I_a, I_b) —
// has index base[k] + (ia−1)·ia/2 + jb−1, the order of sched.Program's
// ModDest table, and one int32 entry ent[p]:
//
//   - diagonal destination (ia == jb): the slab offset of block (I_b, 0).
//     Its row and column maps are g − Start[I_b], a subtraction.
//   - source rows landing on consecutive destination rows (ent ≥ 0): the
//     slab offset of the first destination row, column 0.
//   - scattered source rows (ent < 0): ^ent indexes a record in the
//     position slab, holding the destination block's slab offset (32 bits,
//     low digit first) and then the destination row position of each source
//     row.
//
// Column maps are always a subtraction (srcB.Rows[t] − Start[I_b]), so
// only row-scattered pairings take position-slab space. Positions are
// below the destination panel's width, so the slab is []uint8 while the
// widest panel is ≤ 256 and []uint16 otherwise; exactly one is non-nil.
type bmodPlan struct {
	size   int     // values in the slab
	colOff []int32 // column → slab offset of its first block
	base   []int32 // column → index of its first pairing
	ent    []int32 // pairing → destination entry (see above)
	pos8   []uint8
	pos16  []uint16
}

// planResult is what blocks.Structure.Derived memoizes.
type planResult struct {
	plan *bmodPlan
	err  error
}

// planOf returns the structure's BMOD plan, building it on first use.
func planOf(bs *blocks.Structure) (*bmodPlan, error) {
	r := bs.Derived(func() any {
		p, err := buildPlan(bs)
		return planResult{p, err}
	}).(planResult)
	return r.plan, r.err
}

// position is the element type of a position slab.
type position interface{ ~uint8 | ~uint16 }

// appendRecord appends one row-scattered pairing's record: the destination
// block's slab offset in 32/bits(T) digits, then the row positions.
func appendRecord[T position](slab []T, off int32, pos []int) []T {
	w := bits.Len64(uint64(^T(0)))
	for sh := 0; sh < 32; sh += w {
		slab = append(slab, T(uint32(off)>>sh))
	}
	for _, d := range pos {
		slab = append(slab, T(d))
	}
	return slab
}

// readRecord decodes the record at slab[i:] into rel (len(rel) positions)
// and returns the destination block's slab offset.
func readRecord[T position](slab []T, i int, rel []int) int {
	w := bits.Len64(uint64(^T(0)))
	n := 32 / w
	rec := slab[i : i+n+len(rel)]
	off := 0
	for d := 0; d < n; d++ {
		off |= int(rec[d]) << (d * w)
	}
	for s := range rel {
		rel[s] = int(rec[n+s])
	}
	return off
}

// scattered decodes the record of row-scattered entry e: it writes the
// source rows' destination positions into rel and returns the destination
// block's slab offset.
func (pl *bmodPlan) scattered(e int32, rel []int) int {
	if pl.pos8 != nil {
		return readRecord(pl.pos8, int(^e), rel)
	}
	return readRecord(pl.pos16, int(^e), rel)
}

// buildPlan lays out the slab and compiles every pairing's entry.
func buildPlan(bs *blocks.Structure) (*bmodPlan, error) {
	part := bs.Part
	n := bs.N()
	pl := &bmodPlan{colOff: make([]int32, n), base: make([]int32, n)}

	// Slab layout and pairing bases; both must fit the int32 entries.
	size, pairs, maxW, maxRows := 0, 0, 0, 0
	for j := range bs.Cols {
		w := part.Width(j)
		maxW = max(maxW, w)
		pl.colOff[j] = int32(size)
		pl.base[j] = int32(pairs)
		for _, b := range bs.Cols[j].Blocks {
			size += len(b.Rows) * w
			maxRows = max(maxRows, len(b.Rows))
		}
		m := len(bs.Cols[j].Blocks) - 1
		pairs += m * (m + 1) / 2
		if size > math.MaxInt32 || pairs > math.MaxInt32 {
			return nil, fmt.Errorf("numeric: factor of %d values and %d BMOD pairings exceeds the plan's int32 range", size, pairs)
		}
	}
	pl.size = size
	pl.ent = make([]int32, pairs)
	if maxW > 256 {
		pl.pos16 = []uint16{}
	} else {
		pl.pos8 = []uint8{}
	}

	pos := make([]int, maxRows)
	for k := range bs.Cols {
		blks := bs.Cols[k].Blocks
		base := int(pl.base[k])
		for jb := 1; jb < len(blks); jb++ {
			destJ := blks[jb].I
			wJ := part.Width(destJ)
			dest := bs.Cols[destJ].Blocks
			// Destination rows I_a ascend with ia, so one forward walk
			// over column I_b finds every destination block of this jb.
			dbi, doff := 0, int(pl.colOff[destJ])
			for ia := jb; ia < len(blks); ia++ {
				p := base + (ia-1)*ia/2 + jb - 1
				src := &blks[ia]
				for dbi < len(dest) && dest[dbi].I < src.I {
					doff += len(dest[dbi].Rows) * wJ
					dbi++
				}
				if dbi == len(dest) || dest[dbi].I != src.I {
					return nil, fmt.Errorf("numeric: BMOD dest (%d,%d) missing", src.I, destJ)
				}
				if ia == jb {
					pl.ent[p] = int32(doff)
					continue
				}
				// The source rows are a subset of the destination's (§2.1),
				// so they land on consecutive rows exactly when the last
				// one sits ra−1 rows after the first.
				drows, rows := dest[dbi].Rows, src.Rows
				d, _ := slices.BinarySearch(drows, rows[0])
				if last := d + len(rows) - 1; last < len(drows) && drows[last] == rows[len(rows)-1] {
					pl.ent[p] = int32(doff + d*wJ)
					continue
				}
				for s, g := range rows {
					for d < len(drows) && drows[d] < g {
						d++
					}
					if d == len(drows) || drows[d] != g {
						return nil, fmt.Errorf("numeric: BMOD row %d of source (%d,%d) missing from dest (%d,%d)", g, src.I, k, src.I, destJ)
					}
					pos[s] = d
				}
				if len(pl.pos8)+len(pl.pos16) > math.MaxInt32 {
					return nil, fmt.Errorf("numeric: BMOD position slab exceeds the plan's int32 range")
				}
				switch {
				case pl.pos8 != nil:
					pl.ent[p] = ^int32(len(pl.pos8))
					pl.pos8 = appendRecord(pl.pos8, int32(doff), pos[:len(src.Rows)])
				default:
					pl.ent[p] = ^int32(len(pl.pos16))
					pl.pos16 = appendRecord(pl.pos16, int32(doff), pos[:len(src.Rows)])
				}
			}
		}
	}
	// The slabs grew by append; copy them out of their growth slack, they
	// live as long as the structure. Clone keeps nil and non-nil apart.
	pl.pos8 = slices.Clone(pl.pos8)
	pl.pos16 = slices.Clone(pl.pos16)
	return pl, nil
}
