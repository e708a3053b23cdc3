package core

import (
	"context"
	"errors"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// indefiniteValues returns a value vector for m's pattern that is not
// positive definite: the SPD values with one diagonal entry negated.
func indefiniteValues(t *testing.T, plan *Plan, col int) []float64 {
	t.Helper()
	vals := append([]float64(nil), plan.A.Val...)
	vals[plan.A.ColPtr[col]] = -vals[plan.A.ColPtr[col]]
	return vals
}

func planForPerturb(t *testing.T) *Plan {
	t.Helper()
	m := gen.IrregularMesh(150, 5, 3, 5)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestFactorValuesPropagatesPivotError(t *testing.T) {
	plan := planForPerturb(t)
	a := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 0)
	bad := indefiniteValues(t, plan, 40)
	_, _, err := plan.FactorValuesContext(context.Background(), a, bad, FactorRun{})
	var pe *kernels.PivotError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *kernels.PivotError", err)
	}
	if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		t.Fatalf("%v does not match the sentinel", err)
	}
	if pe.Row < 0 || pe.Row >= plan.A.N {
		t.Fatalf("pivot row %d out of range", pe.Row)
	}
}

func TestPerturbationRecoversIndefiniteMatrix(t *testing.T) {
	plan := planForPerturb(t)
	a := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 0)
	bad := indefiniteValues(t, plan, 40)

	f, rep, err := plan.FactorValuesContext(context.Background(), a, bad, FactorRun{Perturb: &Perturbation{}})
	if err != nil {
		t.Fatalf("perturbed factorization failed: %v", err)
	}
	shift := rep.Shift
	if shift <= 0 {
		t.Fatalf("indefinite matrix factored with shift %g, expected a positive shift", shift)
	}
	// The factor solves the shifted system A + αI; check the residual
	// against that matrix, not the indefinite input.
	b := make([]float64, plan.A.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	shifted := append([]float64(nil), bad...)
	for j := 0; j < plan.A.N; j++ {
		shifted[plan.A.ColPtr[j]] += shift
	}
	sm := &sparse.Matrix{N: plan.A.N, ColPtr: plan.A.ColPtr, RowInd: plan.A.RowInd, Val: shifted}
	if r := sm.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("residual %g against the shifted matrix", r)
	}

	// SPD values must factor with zero shift through the same entry point.
	f2, rep2, err := plan.FactorValuesContext(context.Background(), a, plan.A.Val, FactorRun{Perturb: &Perturbation{}})
	if err != nil || rep2.Shift != 0 {
		t.Fatalf("SPD matrix: shift %g err %v", rep2.Shift, err)
	}
	if _, err := f2.Solve(b); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbationBoundedAttempts(t *testing.T) {
	plan := planForPerturb(t)
	a := plan.Assign(plan.Map(mapping.Grid{Pr: 1, Pc: 1}, mapping.ID, mapping.CY), 0)
	// A violently indefinite matrix: every diagonal strongly negative, so
	// small shifts cannot rescue it and the attempt bound must trip.
	bad := append([]float64(nil), plan.A.Val...)
	for j := 0; j < plan.A.N; j++ {
		bad[plan.A.ColPtr[j]] = -1e6
	}
	nf, _, err := plan.FactorValuesContext(context.Background(), a, plan.A.Val, FactorRun{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = nf.RefactorPerturbedContext(context.Background(), bad,
		Perturbation{InitialShift: 1e-12, Growth: 2, MaxAttempts: 3})
	if err == nil {
		t.Fatal("hopeless matrix factored")
	}
	if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want wrapped pivot failure", err)
	}
}
