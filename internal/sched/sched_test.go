package sched

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func setup(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	po := etree.Build(m1).Postorder()
	m2, err := m1.Permute(po)
	if err != nil {
		t.Fatal(err)
	}
	st, err := symbolic.Analyze(m2, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return st, bs
}

func TestProgramIdentities(t *testing.T) {
	_, bs := setup(t, gen.IrregularMesh(250, 5, 3, 13), ord.MinDegree, 0, 8)
	g := mapping.Grid{Pr: 3, Pc: 4}
	a := Assignment{Map: mapping.Cyclic(g, bs.N())}
	pr := Build(bs, a)

	// Block count and id round trips.
	want := 0
	for j := range bs.Cols {
		want += len(bs.Cols[j].Blocks)
	}
	if pr.NBlocks != want {
		t.Fatalf("NBlocks=%d, want %d", pr.NBlocks, want)
	}
	for j := range bs.Cols {
		for idx := range bs.Cols[j].Blocks {
			id := pr.BlockID(j, idx)
			if int(pr.ColOf[id]) != j || int(pr.IdxOf[id]) != idx {
				t.Fatalf("id round trip broken at (%d,%d)", j, idx)
			}
			b := &bs.Cols[j].Blocks[idx]
			if pr.FindID(b.I, j) != id {
				t.Fatalf("FindID(%d,%d) wrong", b.I, j)
			}
			if int(pr.Owner[id]) != a.Owner(b.I, j) {
				t.Fatalf("owner mismatch at (%d,%d)", b.I, j)
			}
		}
	}

	// NMods must sum to the number of BMOD ops; OwnOpFlops set everywhere.
	var modSum int64
	var bmods int64
	for id := 0; id < pr.NBlocks; id++ {
		modSum += int64(pr.NMods[id])
		if pr.OwnOpFlops[id] <= 0 {
			t.Fatalf("block %d has no completing op cost", id)
		}
	}
	bs.ForEachOp(func(op blocks.Op) {
		if op.Kind == blocks.BMOD {
			bmods++
		}
	})
	if modSum != bmods {
		t.Fatalf("NMods sum %d != BMOD count %d", modSum, bmods)
	}

	// OwnedCount sums to NBlocks.
	sum := 0
	for _, c := range pr.OwnedCount {
		sum += c
	}
	if sum != pr.NBlocks {
		t.Fatalf("owned counts sum %d", sum)
	}

	// Message totals consistent with consumer lists.
	var msgs, bytes int64
	for id := 0; id < pr.NBlocks; id++ {
		seen := map[int32]bool{}
		for _, c := range pr.Consumers[id] {
			if seen[c] {
				t.Fatalf("duplicate consumer %d of block %d", c, id)
			}
			seen[c] = true
			if c != pr.Owner[id] {
				msgs++
				bytes += pr.Bytes[id]
			}
		}
	}
	if msgs != pr.TotalMessages || bytes != pr.TotalBytes {
		t.Fatalf("message totals %d/%d, want %d/%d", pr.TotalMessages, pr.TotalBytes, msgs, bytes)
	}
}

func TestConsumersCoverAllModsAndDivs(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	g := mapping.Grid{Pr: 2, Pc: 3}
	a := Assignment{Map: mapping.Cyclic(g, bs.N())}
	pr := Build(bs, a)

	has := func(id int32, p int32) bool {
		for _, c := range pr.Consumers[id] {
			if c == p {
				return true
			}
		}
		return false
	}
	bs.ForEachOp(func(op blocks.Op) {
		switch op.Kind {
		case blocks.BDIV:
			// The owner of L(I,K) must receive the diagonal of K.
			diag := pr.BlockID(op.K, 0)
			owner := pr.Owner[pr.FindID(op.I, op.K)]
			if !has(diag, owner) {
				t.Fatalf("diag %d not sent to BDIV owner %d", op.K, owner)
			}
		case blocks.BMOD:
			destOwner := pr.Owner[pr.FindID(op.I, op.J)]
			for _, src := range [][2]int{{op.I, op.K}, {op.J, op.K}} {
				if !has(pr.FindID(src[0], src[1]), destOwner) {
					t.Fatalf("source (%d,%d) not sent to dest owner %d", src[0], src[1], destOwner)
				}
			}
		}
	})
}

func TestAssignmentDomainOverride(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	g := mapping.Grid{Pr: 3, Pc: 3}
	m := mapping.Cyclic(g, bs.N())
	dom := domains.Select(st, bs, g.P(), 2)
	a := Assignment{Map: m, Dom: dom}
	for j := 0; j < bs.N(); j++ {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			got := a.Owner(b.I, j)
			if dom.PanelOwner[j] >= 0 {
				if got != dom.PanelOwner[j] {
					t.Fatalf("domain panel %d not owned by domain proc", j)
				}
			} else if got != m.Owner(b.I, j) {
				t.Fatalf("root panel %d not 2-D mapped", j)
			}
		}
	}
}

func TestDomainsReduceCommunication(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(20), ord.NDGrid2D, 20, 4)
	g := mapping.Grid{Pr: 4, Pc: 4}
	m := mapping.Cyclic(g, bs.N())
	plain := Build(bs, Assignment{Map: m})
	dom := Build(bs, Assignment{Map: m, Dom: domains.Select(st, bs, g.P(), 2)})
	if dom.TotalBytes >= plain.TotalBytes {
		t.Fatalf("domains did not reduce traffic: %d vs %d", dom.TotalBytes, plain.TotalBytes)
	}
}

func TestModFlops(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 5)
	pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	// Spot-check against the enumerated ops.
	bs.ForEachOp(func(op blocks.Op) {
		if op.Kind != blocks.BMOD {
			return
		}
		col := &bs.Cols[op.K]
		var ia, jb int
		for idx := 1; idx < len(col.Blocks); idx++ {
			if col.Blocks[idx].I == op.I {
				ia = idx
			}
			if col.Blocks[idx].I == op.J {
				jb = idx
			}
		}
		if got := pr.ModFlops(op.K, ia, jb); got != op.Flops {
			t.Fatalf("ModFlops(%d,%d,%d)=%d, want %d", op.K, ia, jb, got, op.Flops)
		}
	})
}

func TestAssignmentOverride(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 4)
	g := mapping.Grid{Pr: 2, Pc: 2}
	base := mapping.Cyclic(g, bs.N())
	arb := mapping.NewArbitraryGreedy(g.P(), bs)
	a := Assignment{Map: base, Override: arb}
	if a.P() != g.P() {
		t.Fatalf("P=%d", a.P())
	}
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			if a.Owner(b.I, j) != arb.Owner(b.I, j) {
				t.Fatalf("override ignored at (%d,%d)", b.I, j)
			}
		}
	}
	// Build + simulate-able: total owned blocks conserved.
	pr := Build(bs, a)
	sum := 0
	for _, c := range pr.OwnedCount {
		sum += c
	}
	if sum != pr.NBlocks {
		t.Fatal("owned count broken under override")
	}
}

func TestModDestTableMatchesFindID(t *testing.T) {
	_, bs := setup(t, gen.IrregularMesh(250, 5, 3, 29), ord.MinDegree, 0, 8)
	pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 3}, bs.N())})

	// Every (k, ia, jb) pairing, in both argument orders, must resolve to
	// the same id the binary search finds from coordinates.
	pairs := 0
	for k := range bs.Cols {
		col := &bs.Cols[k]
		for ia := 1; ia < len(col.Blocks); ia++ {
			for jb := 1; jb <= ia; jb++ {
				destI := col.Blocks[ia].I
				destJ := col.Blocks[jb].I
				want := pr.FindID(destI, destJ)
				if want < 0 {
					t.Fatalf("pairing (%d,%d,%d): destination (%d,%d) not in structure",
						k, ia, jb, destI, destJ)
				}
				if got := pr.ModDestID(k, ia, jb); got != want {
					t.Fatalf("ModDestID(%d,%d,%d)=%d, FindID(%d,%d)=%d",
						k, ia, jb, got, destI, destJ, want)
				}
				if got := pr.ModDestID(k, jb, ia); got != want {
					t.Fatalf("ModDestID(%d,%d,%d) (swapped)=%d, want %d", k, jb, ia, got, want)
				}
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pairings exercised")
	}
	// Table sized exactly: sum over columns of m(m+1)/2 entries.
	want := 0
	for k := range bs.Cols {
		m := len(bs.Cols[k].Blocks) - 1
		want += m * (m + 1) / 2
	}
	if len(pr.ModDest) != want {
		t.Fatalf("ModDest has %d entries, want %d", len(pr.ModDest), want)
	}
}

// TestNModsCountEveryDestination checks the modification counts, now the
// histogram of the ModDest table, block by block against an independent
// count over the op enumeration.
func TestNModsCountEveryDestination(t *testing.T) {
	_, bs := setup(t, gen.IrregularMesh(300, 5, 3, 17), ord.MinDegree, 0, 6)
	pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	want := make([]int32, pr.NBlocks)
	bs.ForEachOp(func(op blocks.Op) {
		if op.Kind != blocks.BMOD {
			return
		}
		for idx := range bs.Cols[op.J].Blocks {
			if bs.Cols[op.J].Blocks[idx].I == op.I {
				want[pr.BlockID(op.J, idx)]++
			}
		}
	})
	for id := range want {
		if pr.NMods[id] != want[id] {
			t.Fatalf("block %d: NMods %d, want %d", id, pr.NMods[id], want[id])
		}
	}
}

// TestDomOwnerKeepsClosedDomains checks that Build keeps the domain owners
// of a domains.Select assignment and drops ones that break the closure
// (here: one domain panel handed to another processor than its domain).
func TestDomOwnerKeepsClosedDomains(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	g := mapping.Grid{Pr: 2, Pc: 2}
	m := mapping.Cyclic(g, bs.N())
	dom := domains.Select(st, bs, g.P(), 2)
	pr := Build(bs, Assignment{Map: m, Dom: dom})
	if len(pr.DomOwner) != bs.N() {
		t.Fatalf("DomOwner has %d entries for %d panels", len(pr.DomOwner), bs.N())
	}
	for j, o := range dom.PanelOwner {
		if int(pr.DomOwner[j]) != o {
			t.Fatalf("panel %d: DomOwner %d, domain owner %d", j, pr.DomOwner[j], o)
		}
	}
	if Build(bs, Assignment{Map: m}).DomOwner != nil {
		t.Fatal("DomOwner set without domains")
	}

	// Move the parent panel of some domain panel to another processor: a
	// BMOD from the child would cross domains.
	broken := *dom
	broken.PanelOwner = append([]int(nil), dom.PanelOwner...)
	moved := false
	for k := range bs.Cols {
		if len(bs.Cols[k].Blocks) < 2 || dom.PanelOwner[k] < 0 {
			continue
		}
		if up := bs.Cols[k].Blocks[1].I; dom.PanelOwner[up] == dom.PanelOwner[k] {
			broken.PanelOwner[up] = (dom.PanelOwner[k] + 1) % g.P()
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no domain panel with a parent in its domain")
	}
	if Build(bs, Assignment{Map: m, Dom: &broken}).DomOwner != nil {
		t.Fatal("Build kept domains that break the closure")
	}
}
