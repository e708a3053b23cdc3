package order

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// permHash is the FNV-1a hash of a permutation, each entry as 8
// little-endian bytes.
func permHash(p Permutation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenCase is one matrix whose MinDeg permutation is pinned.
type goldenCase struct {
	name  string
	build func() *sparse.Matrix
}

// goldenCases lists every matrix of the paper-table suites at CI scale,
// then three seeded random relabelings each of the cold-pattern mesh, the
// BCSSTK33 analogue at paper scale and GRID150.
func goldenCases() []goldenCase {
	var cs []goldenCase
	seen := map[string]bool{}
	for _, suite := range [][]gen.Problem{gen.Table1Suite(gen.ScaleCI), gen.Table6Suite(gen.ScaleCI), gen.Table7Suite(gen.ScaleCI)} {
		for _, p := range suite {
			if !seen[p.Name] {
				seen[p.Name] = true
				cs = append(cs, goldenCase{p.Name, p.Build})
			}
		}
	}
	bases := []struct {
		name  string
		build func() *sparse.Matrix
	}{
		{"mesh2200", func() *sparse.Matrix { return gen.IrregularMesh(2200, 9, 3, 31) }},
		{"mesh8738", func() *sparse.Matrix { return gen.IrregularMesh(8738, 16, 3, 33) }},
		{"grid150", func() *sparse.Matrix { return gen.Grid2D(150) }},
	}
	for _, b := range bases {
		var base *sparse.Matrix // built once, on first use
		build := b.build
		for seed := int64(1); seed <= 3; seed++ {
			seed := seed
			cs = append(cs, goldenCase{fmt.Sprintf("%s/relabel%d", b.name, seed), func() *sparse.Matrix {
				if base == nil {
					base = build()
				}
				pm, err := base.Permute(rand.New(rand.NewSource(seed)).Perm(base.N))
				if err != nil {
					panic(err)
				}
				return pm
			}})
		}
	}
	return cs
}

// goldenMinDeg holds the permutation hash per case, taken before the
// branch-free MinDeg rewrite; keys with an "/amd" suffix are MinDegApprox's.
// The permutation feeds the factor's structure, the paper tables,
// warm-start snapshots (which re-derive their plan) and every flop and
// nnz(L) figure, so any change to either ordering must leave it
// bit-identical.
var goldenMinDeg = map[string]uint64{
	"DENSE1024":             0x8527c56bda3dcd25,
	"DENSE1024/amd":         0x8527c56bda3dcd25,
	"DENSE2048":             0xfaa439712c39db25,
	"DENSE2048/amd":         0xfaa439712c39db25,
	"GRID150":               0x7a8597d5df963a41,
	"GRID150/amd":           0xbae49f91f796380d,
	"GRID300":               0xfe780f516b063605,
	"GRID300/amd":           0x122c77cc0652eae9,
	"CUBE30":                0xfb9c71583a3016d9,
	"CUBE30/amd":            0x346dd2ceff9a7b19,
	"CUBE35":                0x8c787779f1d2f6b9,
	"CUBE35/amd":            0x85dc59f68218c971,
	"BCSSTK15":              0xbefbe2a2e8af7e49,
	"BCSSTK15/amd":          0x80babe2b0c4554bd,
	"BCSSTK29":              0x6a24d9a63e8a3691,
	"BCSSTK29/amd":          0xd5c6659998a62ad5,
	"BCSSTK31":              0x1b0ca99b3388f57d,
	"BCSSTK31/amd":          0x3c7f0d6669b6bea9,
	"BCSSTK33":              0x4735ad16c823a371,
	"BCSSTK33/amd":          0x7239c8efa94d066d,
	"DENSE4096":             0x18081688714342e5,
	"DENSE4096/amd":         0x18081688714342e5,
	"CUBE40":                0xa43b683365560841,
	"CUBE40/amd":            0xd6a577a2d7997b89,
	"COPTER2":               0xd73d490ca2b25b9d,
	"COPTER2/amd":           0x8995bf49949a2d31,
	"10FLEET":               0xacba20ecc9dc5539,
	"10FLEET/amd":           0xba056afa3c17f7f5,
	"mesh2200/relabel1":     0x5c1e9348a1055e25,
	"mesh2200/relabel1/amd": 0x6cdd7559027f1b45,
	"mesh2200/relabel2":     0xa13fb07ede5c8b69,
	"mesh2200/relabel2/amd": 0x1b8987c28c53dd99,
	"mesh2200/relabel3":     0x6e75c03403d00e35,
	"mesh2200/relabel3/amd": 0xcc26539737bcc095,
	"mesh8738/relabel1":     0x7d83a808892ae5a4,
	"mesh8738/relabel1/amd": 0x126da80b3e33e074,
	"mesh8738/relabel2":     0x60b0c71c7617c448,
	"mesh8738/relabel2/amd": 0xde31fd4229f8403c,
	"mesh8738/relabel3":     0xb688dc4766b2bd68,
	"mesh8738/relabel3/amd": 0xc419c715c6ec5cc4,
	"grid150/relabel1":      0xf926ade3ae961395,
	"grid150/relabel1/amd":  0x257c0fcf8ea5c51d,
	"grid150/relabel2":      0xc175b746d7caead5,
	"grid150/relabel2/amd":  0x209bc05e0ca80d9,
	"grid150/relabel3":      0xefe75480dc12beb9,
	"grid150/relabel3/amd":  0x63884f038cb02499,
}

// goldenOrderings are the orderings TestMinDegGolden pins; the suffix is
// appended to the case name to form the goldenMinDeg key. MinDegApprox is
// pinned too: cluster nodes rebuild plans from the ordering they are sent,
// so its permutation must stay as fixed as MinDeg's.
var goldenOrderings = []struct {
	suffix string
	order  func(*sparse.Pattern) Permutation
}{
	{"", MinDeg},
	{"/amd", MinDegApprox},
}

// TestMinDegGolden pins the minimum-degree orderings' output.
func TestMinDegGolden(t *testing.T) {
	for _, c := range goldenCases() {
		m := c.build()
		pat := sparse.PatternOf(m)
		for _, o := range goldenOrderings {
			name := c.name + o.suffix
			p := o.order(pat)
			if err := p.Validate(); err != nil || len(p) != m.N {
				t.Fatalf("%s: invalid permutation (len %d, n %d): %v", name, len(p), m.N, err)
			}
			got := permHash(p)
			want, ok := goldenMinDeg[name]
			if !ok {
				t.Errorf("%s: no golden hash (got %#x)", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: permutation hash %#x, want %#x", name, got, want)
			}
		}
	}
}
