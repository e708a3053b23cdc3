// Package mapping implements the block-to-processor mappings studied in the
// paper: the traditional 2-D cyclic (torus-wrap) mapping, general Cartesian
// product mappings built from independent row and column maps, the four
// greedy number-partitioning heuristics of §4 (Decreasing Work, Increasing
// Number, Decreasing Number, Increasing Depth), the per-processor
// refinement heuristic of §4.2, relatively-prime cyclic grids, and the
// subtree-to-subcube column mapping of §5.
package mapping

import (
	"fmt"
	"sort"

	"blockfanout/internal/blocks"
)

// Grid is a logical Pr×Pc processor grid. Processor (r,c) has linear id
// r*Pc + c.
type Grid struct {
	Pr, Pc int
}

// P returns the number of processors.
func (g Grid) P() int { return g.Pr * g.Pc }

// ProcID returns the linear processor id of grid position (r,c).
func (g Grid) ProcID(r, c int) int { return r*g.Pc + c }

// RowCol returns the grid position of a linear processor id.
func (g Grid) RowCol(id int) (r, c int) { return id / g.Pc, id % g.Pc }

// SquareGrid returns the √P×√P grid the paper uses for its main
// experiments; P must be a perfect square.
func SquareGrid(p int) (Grid, error) {
	r := 1
	for r*r < p {
		r++
	}
	if r*r != p {
		return Grid{}, fmt.Errorf("mapping: P=%d is not a perfect square", p)
	}
	return Grid{Pr: r, Pc: r}, nil
}

// BestGrid factors P into the most nearly square Pr×Pc grid (Pr ≥ Pc).
// For P=63 it returns 9×7 and for P=99 it returns 11×9 — the
// relatively-prime grids of §4.2.
func BestGrid(p int) Grid {
	best := Grid{Pr: p, Pc: 1}
	for c := 1; c*c <= p; c++ {
		if p%c == 0 {
			best = Grid{Pr: p / c, Pc: c}
		}
	}
	return best
}

// gcd of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RelativelyPrime reports whether the grid dimensions are coprime, the
// property that lets a plain cyclic mapping scatter the block diagonal over
// the whole machine (§4.2).
func (g Grid) RelativelyPrime() bool { return gcd(g.Pr, g.Pc) == 1 }

// Mapping is a Cartesian-product block mapping: block (I,J) lives on
// processor (MapI[I], MapJ[J]). Per §2.4 this structure is what bounds the
// number of processors any block must be sent to by Pr+Pc.
type Mapping struct {
	Grid Grid
	MapI []int // block row → processor row
	MapJ []int // block col → processor col
}

// Owner returns the linear processor id owning block (I,J).
func (m *Mapping) Owner(i, j int) int { return m.Grid.ProcID(m.MapI[i], m.MapJ[j]) }

// Heuristic selects how a row (or column) map is built.
type Heuristic int

const (
	// CY is the cyclic map: mapI[I] = I mod Pr (the paper's baseline).
	CY Heuristic = iota
	// DW greedily assigns block rows in order of decreasing work.
	DW
	// IN greedily assigns block rows in order of increasing row number.
	IN
	// DN greedily assigns block rows in order of decreasing row number.
	DN
	// ID greedily assigns block rows in order of increasing depth in the
	// elimination tree (ties broken by decreasing row number, since ID is
	// a refinement of DN).
	ID
)

var heuristicNames = [...]string{"CY", "DW", "IN", "DN", "ID"}

func (h Heuristic) String() string {
	if int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// AllHeuristics lists the five mappings in the order of the paper's tables.
func AllHeuristics() []Heuristic { return []Heuristic{CY, DW, IN, DN, ID} }

// ParseHeuristic converts a name ("CY", "DW", "IN", "DN", "ID") to a
// Heuristic.
func ParseHeuristic(s string) (Heuristic, error) {
	for i, n := range heuristicNames {
		if n == s {
			return Heuristic(i), nil
		}
	}
	return 0, fmt.Errorf("mapping: unknown heuristic %q", s)
}

// consideration order of the panels for a heuristic. weight is the panel
// aggregate work (workI or workJ) and depth the panel's supernode depth in
// the elimination forest (used by ID only).
func order(h Heuristic, weight []int64, depth []int) []int {
	n := len(weight)
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	switch h {
	case DW:
		sort.SliceStable(ord, func(a, b int) bool { return weight[ord[a]] > weight[ord[b]] })
	case IN:
		// already increasing
	case DN:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			ord[i], ord[j] = ord[j], ord[i]
		}
	case ID:
		sort.SliceStable(ord, func(a, b int) bool {
			if depth[ord[a]] != depth[ord[b]] {
				return depth[ord[a]] < depth[ord[b]]
			}
			return ord[a] > ord[b]
		})
	}
	return ord
}

// Greedy runs the paper's number-partitioning loop: panels are considered
// in the given order and each is assigned to the bin that has received the
// least weight so far. Returns the panel → bin map.
func Greedy(ord []int, weight []int64, bins int) []int {
	loaded := make([]int64, bins)
	out := make([]int, len(ord))
	for _, i := range ord {
		minB := 0
		for b := 1; b < bins; b++ {
			if loaded[b] < loaded[minB] {
				minB = b
			}
		}
		out[i] = minB
		loaded[minB] += weight[i]
	}
	return out
}

// buildMap creates one side of a CP mapping.
func buildMap(h Heuristic, weight []int64, depth []int, bins int) []int {
	n := len(weight)
	if h == CY {
		m := make([]int, n)
		for i := range m {
			m[i] = i % bins
		}
		return m
	}
	return Greedy(order(h, weight, depth), weight, bins)
}

// New builds the Cartesian-product mapping for the block structure using
// the given row and column heuristics. panelDepth gives each panel's
// supernode depth in the elimination forest (needed only by ID; may be nil
// otherwise). A grid with Pr or Pc below 1 is a caller bug (BestGrid(0) is
// one): callers validate the processor count before building a mapping.
func New(g Grid, rowH, colH Heuristic, bs *blocks.Structure, panelDepth []int) *Mapping {
	if panelDepth == nil && (rowH == ID || colH == ID) {
		panic("mapping: ID heuristic requires panel depths")
	}
	return &Mapping{
		Grid: g,
		MapI: buildMap(rowH, bs.WorkI(), panelDepth, g.Pr),
		MapJ: buildMap(colH, bs.WorkJ(), panelDepth, g.Pc),
	}
}

// Cyclic returns the plain 2-D cyclic (torus-wrap) mapping.
func Cyclic(g Grid, n int) *Mapping {
	m := &Mapping{Grid: g, MapI: make([]int, n), MapJ: make([]int, n)}
	for i := 0; i < n; i++ {
		m.MapI[i] = i % g.Pr
		m.MapJ[i] = i % g.Pc
	}
	return m
}
