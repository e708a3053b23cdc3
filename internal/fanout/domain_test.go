package fanout

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"blockfanout/internal/domains"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// domainProgram builds a schedule with §2.3 domains on a 1×p grid over an
// ND-ordered k×k grid, checks that it keeps its domains, and returns it
// with the permuted matrix.
func domainProgram(t *testing.T, k, p int) (*sched.Program, *sparse.Matrix) {
	t.Helper()
	st, bs, pm := setup(t, gen.Grid2D(k), ord.NDGrid2D, k, 4)
	g := mapping.Grid{Pr: 1, Pc: p}
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N()), Dom: domains.Select(st, bs, p, 2)})
	if pr.DomOwner == nil {
		t.Fatal("schedule kept no domains")
	}
	return pr, pm
}

// TestDomainPivotErrorDeterministic poisons one diagonal in each of two
// domains owned by different workers and runs the parallel factorization
// 25 times. The higher poison is its owner's first domain panel, so that
// worker fails at once; the lower one is the other worker's last domain
// panel below it. Every run must still report the lower (Block, Row), the
// breakdown FactorSequential reports: a domain task stops only at its own
// failure, never at a peer's. Runs under -race in CI.
func TestDomainPivotErrorDeterministic(t *testing.T) {
	pr, pm := domainProgram(t, 24, 2)
	bs := pr.BS
	first := -1
	for j, o := range pr.DomOwner {
		if o >= 0 {
			first = j
			break
		}
	}
	hi := -1
	for j, o := range pr.DomOwner {
		if o >= 0 && o != pr.DomOwner[first] {
			hi = j
			break
		}
	}
	if hi < 0 {
		t.Fatal("want domains on two workers")
	}
	lo := first
	for j := first; j < hi; j++ {
		if pr.DomOwner[j] == pr.DomOwner[first] {
			lo = j
		}
	}
	bad := pm.Clone()
	for _, k := range []int{lo, hi} {
		bad.Val[bad.ColPtr[bs.Part.Start[k]]] = -7
	}

	seq, err := numeric.New(bs, bad)
	if err != nil {
		t.Fatal(err)
	}
	var want *kernels.PivotError
	if err := seq.FactorSequential(); !errors.As(err, &want) {
		t.Fatalf("sequential: got %v, want *PivotError", err)
	}
	if want.Block != lo || want.Row != bs.Part.Start[lo] {
		t.Fatalf("sequential reports {Block:%d Row:%d}, want the lower poison {Block:%d Row:%d}",
			want.Block, want.Row, lo, bs.Part.Start[lo])
	}

	f, err := numeric.New(bs, bad)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	for run := 0; run < 25; run++ {
		if err := f.Reload(bad.Val); err != nil {
			t.Fatal(err)
		}
		_, err := ex.Run()
		var pe *kernels.PivotError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: got %v, want *PivotError", run, err)
		}
		if *pe != *want {
			t.Fatalf("run %d: %+v, want sequential's %+v", run, *pe, *want)
		}
	}
}

// TestDomainCancelMidDomain cancels the run's context from inside a
// domain task, after its owner's second domain column, and checks that
// the task stops there: the run reports the cancellation, that worker
// completes no further domain column, and the executor then refactors
// correctly.
func TestDomainCancelMidDomain(t *testing.T) {
	pr, pm := domainProgram(t, 24, 2)
	f, err := numeric.New(pr.BS, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	var total, done [2]int
	for _, o := range pr.DomOwner {
		if o >= 0 {
			total[o]++
		}
	}
	if total[0] < 3 {
		t.Fatalf("worker 0 owns %d domain panels; want ≥ 3", total[0])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex.domainColumnDone = func(w int32, k int) {
		done[w]++
		if w == 0 && done[0] == 2 {
			cancel()
			for !ex.cancelled.Load() {
				runtime.Gosched()
			}
		}
	}
	if _, err := ex.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if done[0] != 2 {
		t.Fatalf("worker 0 completed %d of its %d domain columns after the cancel at its second", done[0], total[0])
	}

	ex.domainColumnDone = nil
	if err := f.Reload(pm.Val); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatalf("refactor after a cancelled run: %v", err)
	}
	b := make([]float64, pm.N)
	for i := range b {
		b[i] = 1
	}
	if r := pm.ResidualNorm(f.Solve(b), b); r > 1e-9 {
		t.Fatalf("residual %g after refactor", r)
	}
}

// TestDomainBlocksMatchSequentialBitwise checks that every block of a
// domain panel of a parallel factor equals FactorSequential's bit for bit:
// a domain task applies its updates in the sequential order. Root blocks
// are only held to the usual tolerance (their update order varies).
func TestDomainBlocksMatchSequentialBitwise(t *testing.T) {
	for _, p := range []int{2, 4} {
		pr, pm := domainProgram(t, 30, p)
		par, err := numeric.New(pr.BS, pm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewExecutor(par, pr).Run(); err != nil {
			t.Fatal(err)
		}
		seq, err := numeric.New(pr.BS, pm)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.FactorSequential(); err != nil {
			t.Fatal(err)
		}
		nDom := 0
		for j := range seq.Data {
			dom := pr.DomOwner[j] >= 0
			if dom {
				nDom++
			}
			for bi := range seq.Data[j] {
				for i, w := range seq.Data[j][bi] {
					g := par.Data[j][bi][i]
					if dom && math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("P=%d: domain block (%d,%d)[%d] = %v, sequential %v", p, j, bi, i, g, w)
					}
					if math.Abs(g-w) > 1e-12*(1+math.Abs(w)) {
						t.Fatalf("P=%d: root block (%d,%d)[%d] = %v, sequential %v", p, j, bi, i, g, w)
					}
				}
			}
		}
		if nDom == 0 || nDom == len(seq.Data) {
			t.Fatalf("P=%d: %d of %d panels in domains; want both kinds", p, nDom, len(seq.Data))
		}
	}
}
