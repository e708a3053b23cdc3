package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/order"
)

// librarySetupReps is how many times refactor-irregular sets up per run;
// setup_s is the median.
const librarySetupReps = 5

// runRefactorIrregular is the refactor-irregular workload: the library in
// process, one closed-loop caller refactoring the paper-scale BCSSTK33
// analogue with seeded values, each refactor followed by an untimed
// verifying solve. It bypasses the service, ordering and symbolic
// analysis, so it is the control for changes to those layers.
func runRefactorIrregular(c config) (*result, error) {
	base := gen.IrregularMesh(c.pick(8738, 900), 16, 3, 33)
	in := newPool(base, c.seed, 8, 8)
	res := newResult()
	heap0 := liveHeapMB()

	opts := core.Options{Ordering: order.MinDegree}
	var f *core.Factor
	var setup series
	for i := 0; i < librarySetupReps; i++ {
		f = nil
		runtime.GC()
		t := time.Now()
		plan, err := core.NewPlan(base, opts)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		asg := plan.Assign(plan.Map(mapping.BestGrid(procs), mapping.ID, mapping.CY), domainBeta)
		if f, err = plan.Factor(asg); err != nil {
			return nil, fmt.Errorf("first factor: %w", err)
		}
		setup.add(time.Since(t))
	}

	// op refactors with value set i, then verifies a solve untimed.
	op := func(i int, refactor func([]float64) error, solve func([]float64) ([]float64, error)) (time.Duration, bool) {
		k := i % len(in.mats)
		b := in.rhs[i%len(in.rhs)]
		res.attempted++
		t := time.Now()
		err := refactor(in.mats[k].Val)
		d := time.Since(t)
		if err != nil {
			res.fail("op %d: refactor: %v", i, err)
			return d, false
		}
		x, err := solve(b)
		if err == nil && i == c.sabotage {
			x[0] += 1
		}
		if err == nil {
			err = checkSolution(in.mats[k], in.norms[k], x, b)
		}
		if err != nil {
			res.fail("op %d: solve: %v", i, err)
			return d, false
		}
		return d, true
	}

	i := 0
	for ; i < warmOps; i++ {
		op(i, f.Refactor, f.Solve)
	}
	var lat series
	start := time.Now()
	for win := newWindow(c.window, c.need(0.9)); win.open(len(lat)); i++ {
		if d, ok := op(i, f.Refactor, f.Solve); ok {
			lat.add(d)
		}
	}
	elapsed := time.Since(start).Seconds()
	if err := matchSequential(f); err != nil {
		res.checkFail("parallel factor vs sequential: %v", err)
	}
	res.setEndToEnd(setup, lat, float64(len(lat))/elapsed, liveHeapMB()-heap0)
	res.latencies("refactor", lat, 0.9)

	if c.trace {
		if err := traceRefactorIrregular(c, res, f, in, lat, op); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(f)
	res.finish()
	return res, nil
}

// traceRefactorIrregular is refactor-irregular's traced window: the same
// operations, run on an executor the benchmark builds (numeric.New →
// sched.Build → fanout.NewExecutorMode) with a span recorder enabled.
func traceRefactorIrregular(c config, res *result, f *core.Factor, in *pool, untraced series,
	op func(int, func([]float64) error, func([]float64) ([]float64, error)) (time.Duration, bool)) error {
	plan := f.Plan()
	rp, err := analyze(plan.A, plan.Opts.Ordering)
	if err != nil {
		return fmt.Errorf("replaying the plan: %w", err)
	}
	if rp.exact != plan.Exact {
		res.checkFail("replay analysis %+v differs from the plan's %+v", rp.exact, plan.Exact)
	}
	l := newLayers()
	cold, err := rp.coldFactor(plan.A.Val)
	if err != nil {
		return fmt.Errorf("replaying the first factor: %w", err)
	}
	l.addAnalysis(rp, cold)

	var traced series
	var run factorRun
	refactor := func(v []float64) error {
		var err error
		run, err = rp.refactor(v)
		return err
	}
	solve := func(b []float64) ([]float64, error) {
		x, ms := rp.solve(b)
		l.add("numeric.solve_ms", ms)
		return x, nil
	}
	for i, win := tracedOffset, newWindow(c.window/2, 0); win.open(len(traced)); i++ {
		if d, ok := op(i, refactor, solve); ok {
			traced.add(d)
			l.addRun(run)
		}
	}
	res.samples["traced"] = len(traced)
	mindeg, err := mindegFlops(plan.A)
	if err != nil {
		return err
	}
	l.fill(res, rp, mindeg, traced.quantile(0.5)/untraced.quantile(0.5)-1)
	return nil
}

// matchSequential checks f entrywise against the sequential factorization
// (numeric.Factor.FactorSequential) of the values f currently holds.
func matchSequential(f *core.Factor) error {
	plan := f.Plan()
	vals := f.Matrix().Val
	pa := withValues(plan.PA, make([]float64, len(vals)))
	for q, src := range plan.ValMap {
		pa.Val[q] = vals[src]
	}
	seq, err := numeric.New(plan.BS, pa)
	if err != nil {
		return err
	}
	if err := seq.FactorSequential(); err != nil {
		return err
	}
	return sameFactor(f.Numeric(), seq)
}

// sameFactor compares two factors of one block structure entrywise.
func sameFactor(got, want *numeric.Factor) error {
	for j := range want.Data {
		for bi := range want.Data[j] {
			for k, w := range want.Data[j][bi] {
				if g := got.Data[j][bi][k]; !(math.Abs(g-w) <= seqTol*(1+math.Abs(w))) {
					return fmt.Errorf("column %d block %d entry %d: %g vs sequential %g", j, bi, k, g, w)
				}
			}
		}
	}
	return nil
}
