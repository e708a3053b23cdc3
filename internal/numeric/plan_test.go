package numeric

import (
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// analyze orders, postorders and analyzes m, returning the symbolic
// structure and the permuted matrix, for tests that choose their own
// partition.
func analyze(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim int, amal symbolic.AmalgamationConfig) (*symbolic.Structure, *sparse.Matrix) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.Permute(etree.Build(m1).Postorder())
	if err != nil {
		t.Fatal(err)
	}
	st, err := symbolic.Analyze(m2, amal)
	if err != nil {
		t.Fatal(err)
	}
	return st, m2
}

// planCases are block structures over the uniform, irregular and staged
// partitions, plus one whose widest panel exceeds 256 columns (the
// irregular partition at block size 300), so the plan stores uint16
// positions.
func planCases(t *testing.T) []struct {
	name string
	bs   *blocks.Structure
	pm   *sparse.Matrix
	wide bool
} {
	t.Helper()
	type tc = struct {
		name string
		bs   *blocks.Structure
		pm   *sparse.Matrix
		wide bool
	}
	var out []tc
	build := func(name string, st *symbolic.Structure, pm *sparse.Matrix, part *blocks.Partition, err error, wide bool) {
		if err != nil {
			t.Fatal(err)
		}
		bs, err := blocks.Build(st, part)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tc{name, bs, pm, wide})
	}
	st, pm := analyze(t, gen.IrregularMesh(400, 5, 3, 71), ord.MinDegree, 0, symbolic.DefaultAmalgamation())
	build("uniform", st, pm, blocks.NewPartition(st, 8), nil, false)
	st, pm = analyze(t, gen.IrregularMesh(500, 6, 3, 11), ord.MinDegree, 0, symbolic.RelativeAmalgamation(0.125))
	part, err := blocks.NewPartitionIrregular(st, blocks.IrregularConfig{MaxPanel: 16})
	build("irregular", st, pm, part, err, false)
	st, pm = analyze(t, gen.IrregularMesh(500, 6, 3, 12), ord.MinDegree, 0, symbolic.DefaultAmalgamation())
	part, err = blocks.NewPartitionStaged(st, 3, 12, st.N/2)
	build("staged", st, pm, part, err, false)
	st, pm = analyze(t, gen.Cube3D(18), ord.NDCube3D, 18, symbolic.RelativeAmalgamation(0.125))
	part, err = blocks.NewPartitionIrregular(st, blocks.IrregularConfig{MaxPanel: 300})
	build("blocksize300", st, pm, part, err, true)
	return out
}

// mergeRef is the index merge BMOD ran on every call before the plan
// existed: the position of each source row in the destination's row list.
func mergeRef(dest, src []int) []int {
	pos := make([]int, len(src))
	d := 0
	for s, g := range src {
		for dest[d] < g {
			d++
		}
		if dest[d] != g {
			panic("source row missing from destination")
		}
		pos[s] = d
	}
	return pos
}

// TestPlanMatchesMerge checks every pairing's precompiled entry against
// the merge and block search it replaced: diagonal destinations address
// the diagonal block, row-consecutive ones the first destination row, and
// every other one a record holding the destination block and the merged
// positions.
func TestPlanMatchesMerge(t *testing.T) {
	for _, tc := range planCases(t) {
		bs, part := tc.bs, tc.bs.Part
		pl, err := planOf(bs)
		if err != nil {
			t.Fatal(err)
		}
		if tc.wide != (pl.pos16 != nil) || (pl.pos8 == nil) == (pl.pos16 == nil) {
			t.Fatalf("%s: pos8 set %v, pos16 set %v, want uint16 positions %v",
				tc.name, pl.pos8 != nil, pl.pos16 != nil, tc.wide)
		}
		// The slab layout: blocks packed in (column, block-index) order.
		off := make([][]int, bs.N())
		size := 0
		for j := range bs.Cols {
			for _, b := range bs.Cols[j].Blocks {
				off[j] = append(off[j], size)
				size += len(b.Rows) * part.Width(j)
			}
		}
		if pl.size != size {
			t.Fatalf("%s: plan slab holds %d values, blocks %d", tc.name, pl.size, size)
		}
		var diag, contig, scattered int
		for k := range bs.Cols {
			blks := bs.Cols[k].Blocks
			for ia := 1; ia < len(blks); ia++ {
				for jb := 1; jb <= ia; jb++ {
					e := pl.ent[int(pl.base[k])+(ia-1)*ia/2+jb-1]
					destI, destJ := blks[ia].I, blks[jb].I
					dbi := -1
					for i, b := range bs.Cols[destJ].Blocks {
						if b.I == destI {
							dbi = i
						}
					}
					if dbi < 0 {
						t.Fatalf("%s: no destination block (%d,%d)", tc.name, destI, destJ)
					}
					if ia == jb {
						diag++
						if int(e) != off[destJ][0] {
							t.Fatalf("%s: pairing (%d,%d,%d) entry %d, want diagonal block at %d", tc.name, k, ia, jb, e, off[destJ][0])
						}
						continue
					}
					pos := mergeRef(bs.Cols[destJ].Blocks[dbi].Rows, blks[ia].Rows)
					if pos[len(pos)-1]-pos[0] == len(pos)-1 {
						contig++
						if want := off[destJ][dbi] + pos[0]*part.Width(destJ); int(e) != want {
							t.Fatalf("%s: pairing (%d,%d,%d) entry %d, want %d", tc.name, k, ia, jb, e, want)
						}
						continue
					}
					scattered++
					if e >= 0 {
						t.Fatalf("%s: row-scattered pairing (%d,%d,%d) has contiguous entry %d", tc.name, k, ia, jb, e)
					}
					rel := make([]int, len(pos))
					if got := pl.scattered(e, rel); got != off[destJ][dbi] {
						t.Fatalf("%s: pairing (%d,%d,%d) record addresses %d, want block at %d", tc.name, k, ia, jb, got, off[destJ][dbi])
					}
					for s := range pos {
						if rel[s] != pos[s] {
							t.Fatalf("%s: pairing (%d,%d,%d) row %d at position %d, merge says %d", tc.name, k, ia, jb, s, rel[s], pos[s])
						}
					}
				}
			}
		}
		if diag == 0 || contig == 0 || scattered == 0 {
			t.Fatalf("%s: %d diagonal, %d contiguous, %d scattered pairings; want each kind", tc.name, diag, contig, scattered)
		}
	}
}

// TestPlanSharedPerStructure checks the plan is built once per block
// structure: two factors of one structure address one plan.
func TestPlanSharedPerStructure(t *testing.T) {
	bs, pm := setup(t, gen.Grid2D(8), ord.NDGrid2D, 8, 4)
	f1, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if f1.plan != f2.plan {
		t.Fatal("two factors of one structure built two plans")
	}
}

// TestFactorThroughEveryPlanKind factors each plan case sequentially and
// checks the solve residual, so BMOD runs on uint8 and uint16 records.
func TestFactorThroughEveryPlanKind(t *testing.T) {
	for _, tc := range planCases(t) {
		f, err := New(tc.bs, tc.pm)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.FactorSequential(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := make([]float64, tc.pm.N)
		for i := range b {
			b[i] = math.Cos(float64(i) * 0.7)
		}
		if r := tc.pm.ResidualNorm(f.Solve(b), b); r > 1e-9 {
			t.Fatalf("%s: residual %g", tc.name, r)
		}
	}
}
