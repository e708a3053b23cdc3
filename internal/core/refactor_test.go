package core

import (
	"context"
	"math"
	"testing"

	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// refactorFixture returns a plan, a parallel factor, and a same-pattern
// value variant of the plan's matrix.
func refactorFixture(t testing.TB) (*Plan, *Factor, []float64) {
	t.Helper()
	a := gen.IrregularMesh(300, 6, 3, 23)
	plan, err := NewPlan(a, Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.Grid{Pr: 2, Pc: 2}
	f, err := plan.Factor(plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2))
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), a.Val...)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowInd[p] != j {
				vals[p] *= 0.7
			} else {
				vals[p] *= 1.3
			}
		}
	}
	return plan, f, vals
}

// TestRefactorMatchesFromScratch: Factor.Refactor on a fixed pattern with new
// values must match a from-scratch NewPlan+Factor to 1e-12 relative — the
// PR's acceptance criterion.
func TestRefactorMatchesFromScratch(t *testing.T) {
	plan, f, vals := refactorFixture(t)
	if err := f.Refactor(vals); err != nil {
		t.Fatal(err)
	}

	a2 := plan.A.Clone()
	copy(a2.Val, vals)
	plan2, err := NewPlan(a2, Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := plan2.Factor(plan2.Assign(plan2.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2))
	if err != nil {
		t.Fatal(err)
	}

	// Orderings are deterministic, so both factors live on the same
	// permuted pattern; compare block data directly.
	nf, nf2 := f.Numeric(), f2.Numeric()
	for j := range nf.Data {
		for bi := range nf.Data[j] {
			for i, v := range nf.Data[j][bi] {
				w := nf2.Data[j][bi][i]
				if math.Abs(v-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("block (%d,%d)[%d]: refactored %g vs from-scratch %g", j, bi, i, v, w)
				}
			}
		}
	}

	// And the refactored factor solves the new system.
	b := make([]float64, plan.A.N)
	for i := range b {
		b[i] = float64(i%5) + 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual(x, b); r > 1e-8 {
		t.Fatalf("refactored solve residual %g", r)
	}
}

// TestFactorValuesMatchesFromScratch: a cached plan factoring a same-
// pattern matrix via FactorValuesContext must use the supplied values, not
// the values the plan was analyzed from, and match a from-scratch
// NewPlan+Factor of the new matrix.
func TestFactorValuesMatchesFromScratch(t *testing.T) {
	plan, _, vals := refactorFixture(t)
	asn := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2)
	f, _, err := plan.FactorValuesContext(context.Background(), asn, vals, FactorRun{})
	if err != nil {
		t.Fatal(err)
	}

	a2 := plan.A.Clone()
	copy(a2.Val, vals)
	plan2, err := NewPlan(a2, Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := plan2.Factor(plan2.Assign(plan2.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2))
	if err != nil {
		t.Fatal(err)
	}
	nf, nf2 := f.Numeric(), f2.Numeric()
	for j := range nf.Data {
		for bi := range nf.Data[j] {
			for i, v := range nf.Data[j][bi] {
				w := nf2.Data[j][bi][i]
				if math.Abs(v-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("block (%d,%d)[%d]: values-factor %g vs from-scratch %g", j, bi, i, v, w)
				}
			}
		}
	}

	// The factor reports the matrix it actually represents (the new values).
	if got := f.Matrix().Val[0]; got != vals[0] {
		t.Fatalf("factor matrix carries value %g at 0; want %g", got, vals[0])
	}
	b := make([]float64, plan.A.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual(x, b); r > 1e-8 {
		t.Fatalf("values-factor solve residual %g", r)
	}
}

// TestRefactorZeroSymbolicAllocs asserts Refactor skips
// ordering/symbolic/partition entirely: steady-state allocations per
// Refactor stay a tiny constant (per-run goroutine control state only),
// while any symbolic re-analysis would allocate proportionally to the
// thousands of structure entries of the fixture.
func TestRefactorZeroSymbolicAllocs(t *testing.T) {
	a := gen.IrregularMesh(300, 6, 3, 23)
	plan, err := NewPlan(a, Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Single processor keeps goroutine startup noise at its floor.
	g := mapping.Grid{Pr: 1, Pc: 1}
	f, err := plan.Factor(plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 0))
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), a.Val...)
	if err := f.Refactor(vals); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := f.Refactor(vals); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 24
	if avg > budget {
		t.Fatalf("Refactor averaged %.1f allocations; want ≤ %d (no symbolic-phase allocation)", avg, budget)
	}
}

func TestRefactorErrors(t *testing.T) {
	plan, f, vals := refactorFixture(t)

	if err := f.Refactor(vals[:len(vals)-1]); err == nil {
		t.Fatal("Refactor accepted a short value slice")
	}
	bad := append([]float64(nil), vals...)
	bad[3] = math.NaN()
	if err := f.Refactor(bad); err == nil {
		t.Fatal("Refactor accepted NaN values")
	}
	bad[3] = math.Inf(1)
	if err := f.Refactor(bad); err == nil {
		t.Fatal("Refactor accepted Inf values")
	}

	// Cancelled context aborts the parallel refactorization.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.RefactorContext(ctx, vals); err == nil {
		t.Fatal("RefactorContext ignored a cancelled context")
	}
	// The factor recovers on the next successful refactor.
	if err := f.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, plan.A.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual(x, b); r > 1e-8 {
		t.Fatalf("post-cancel refactor residual %g", r)
	}
}

// TestRefactorSequential covers the sequential-factor refactor path.
func TestRefactorSequential(t *testing.T) {
	a := gen.Grid2D(15)
	plan, err := NewPlan(a, Options{Ordering: order.NDGrid2D, GridDim: 15, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), a.Val...)
	for i := range vals {
		vals[i] *= 2
	}
	if err := f.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual(x, b); r > 1e-9 {
		t.Fatalf("sequential refactor residual %g", r)
	}
	// Scaling A by 2 halves the solution; check against the original system.
	x0, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	y, err := x0.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(2*x[i]-y[i]) > 1e-8*(1+math.Abs(y[i])) {
			t.Fatalf("x[%d]: scaled system solution %g, want %g/2", i, x[i], y[i])
		}
	}
}

// TestRestoreFactorRoundTrip factors, exports the block data, restores a
// fresh Factor from it, and checks restored solves and a subsequent
// refactor both work — the warm-start contract of the snapshot store.
func TestRestoreFactorRoundTrip(t *testing.T) {
	m := gen.IrregularMesh(500, 7, 3, 11)
	plan, err := NewPlan(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.BestGrid(4)
	a := plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2)
	f, err := plan.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	blocks := f.Numeric().ExportBlocks()

	rf, err := plan.RestoreFactor(a, m.Val, blocks)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(1 + i%7)
	}
	x, err := rf.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.ResidualNorm(x, b); r > 1e-8 {
		t.Fatalf("restored factor solve residual %g", r)
	}
	if rf.Matrix() == nil || rf.Matrix().Val[0] != m.Val[0] {
		t.Fatal("restored factor does not describe the snapshot values")
	}

	// A restored factor must refactor in place like a computed one.
	v2 := append([]float64(nil), m.Val...)
	for j := 0; j < m.N; j++ {
		v2[m.ColPtr[j]] *= 3
	}
	if err := rf.Refactor(v2); err != nil {
		t.Fatal(err)
	}
	m2 := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: v2}
	x2, err := rf.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := m2.ResidualNorm(x2, b); r > 1e-8 {
		t.Fatalf("post-restore refactor solve residual %g", r)
	}

	// Shape mismatches are rejected, not truncated.
	if _, err := plan.RestoreFactor(a, m.Val, blocks[:len(blocks)-1]); err == nil {
		t.Fatal("short snapshot accepted")
	}
	bad := append([][]float64(nil), blocks...)
	bad[0] = bad[0][:len(bad[0])-1]
	if _, err := plan.RestoreFactor(a, m.Val, bad); err == nil {
		t.Fatal("wrong-length block accepted")
	}
}

// TestEveryParallelPathMatchesSequential checks each way to obtain a
// parallel factor — Factor, FactorValuesContext plain, traced and with
// perturbation enabled, and RestoreFactor — entry-for-entry against
// FactorSequential at 1e-12 relative, under both engines.
func TestEveryParallelPathMatchesSequential(t *testing.T) {
	m := gen.IrregularMesh(300, 6, 3, 23)
	for _, mode := range []fanout.Mode{fanout.ModeWorkStealing, fanout.ModeSPMD} {
		plan, err := NewPlan(m, Options{Ordering: order.MinDegree, BlockSize: 16, Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := plan.FactorSequential()
		if err != nil {
			t.Fatal(err)
		}
		a := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2)
		ctx := context.Background()
		paths := map[string]func() (*Factor, error){
			"Factor": func() (*Factor, error) { return plan.Factor(a) },
			"FactorValuesContext": func() (*Factor, error) {
				f, _, err := plan.FactorValuesContext(ctx, a, m.Val, FactorRun{})
				return f, err
			},
			"FactorValuesContext/trace": func() (*Factor, error) {
				f, rep, err := plan.FactorValuesContext(ctx, a, m.Val, FactorRun{Trace: true})
				if err == nil && len(rep.Spans.Spans()) == 0 {
					t.Errorf("%v: traced run recorded no spans", mode)
				}
				return f, err
			},
			"FactorValuesContext/perturb": func() (*Factor, error) {
				f, rep, err := plan.FactorValuesContext(ctx, a, m.Val, FactorRun{Perturb: &Perturbation{}})
				if err == nil && rep.Shift != 0 {
					t.Errorf("%v: SPD matrix factored with shift %g", mode, rep.Shift)
				}
				return f, err
			},
			// A restored factor's executor must refactor like a computed one.
			"RestoreFactor/refactor": func() (*Factor, error) {
				f, err := plan.RestoreFactor(a, m.Val, seq.Numeric().ExportBlocks())
				if err != nil {
					return nil, err
				}
				return f, f.Refactor(m.Val)
			},
		}
		for name, run := range paths {
			f, err := run()
			if err != nil {
				t.Fatalf("%v %s: %v", mode, name, err)
			}
			sd, pd := seq.Numeric().Data, f.Numeric().Data
			for j := range sd {
				for bi := range sd[j] {
					for k, v := range sd[j][bi] {
						if w := pd[j][bi][k]; math.Abs(v-w) > 1e-12*(1+math.Abs(v)) {
							t.Fatalf("%v %s: column %d block %d entry %d: %g, sequential %g", mode, name, j, bi, k, w, v)
						}
					}
				}
			}
		}
	}
}
