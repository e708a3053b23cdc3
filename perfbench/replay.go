package main

import (
	"fmt"
	"math/rand"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/domains"
	"blockfanout/internal/etree"
	"blockfanout/internal/fanout"
	"blockfanout/internal/kernels"
	"blockfanout/internal/loadbal"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// The traced run's per-layer numbers come from replays: the benchmark
// re-executes an operation's path through the layers' own entry points,
// in the order core.NewPlan, Plan.FactorValuesContext and Factor.Refactor
// call them, and times each call from outside. The program's hot paths
// carry no spans of their own.

// replay is one matrix taken through analysis, ready for numeric replays.
type replay struct {
	perm  order.Permutation
	pa    *sparse.Matrix
	vmap  []int
	sym   *symbolic.Structure
	bs    *blocks.Structure
	depth []int
	mp    *mapping.Mapping
	pr    *sched.Program
	exact etree.Stats
	// ms holds the analysis layers' times: order, symbolic, blocks,
	// mapping and sched.
	ms map[string]float64

	nf        *numeric.Factor
	ex        *fanout.Executor
	rec       *obs.Recorder
	pav       []float64
	bmodFlops int64
}

// analyze replays core.NewPlan and the service's mapping step for a under
// the given ordering, at the default block size and P = procs.
func analyze(a *sparse.Matrix, method order.Method) (*replay, error) {
	r := &replay{ms: map[string]float64{}}
	t := time.Now()
	fill, err := order.Compute(method, a, 0)
	if err != nil {
		return nil, err
	}
	r.ms["order.ms"] = msSince(t)

	t = time.Now()
	a1, err := a.Permute(fill)
	if err != nil {
		return nil, err
	}
	r.perm = fill.Compose(etree.Build(a1).Postorder())
	if r.pa, r.vmap, err = a.PermuteWithMap(r.perm); err != nil {
		return nil, err
	}
	if r.sym, err = symbolic.Analyze(r.pa, symbolic.DefaultAmalgamation()); err != nil {
		return nil, err
	}
	r.ms["symbolic.ms"] = msSince(t)

	t = time.Now()
	part := blocks.NewPartition(r.sym, core.DefaultBlockSize)
	if r.bs, err = blocks.Build(r.sym, part); err != nil {
		return nil, err
	}
	r.depth = make([]int, part.N())
	for p := range r.depth {
		r.depth[p] = r.sym.Depth[part.SnodeOf[p]]
	}
	r.ms["blocks.ms"] = msSince(t)

	t = time.Now()
	r.mp = mapping.New(mapping.BestGrid(procs), mapping.ID, mapping.CY, r.bs, r.depth)
	asg := sched.Assignment{Map: r.mp, Dom: domains.Select(r.sym, r.bs, procs, domainBeta)}
	r.ms["mapping.ms"] = msSince(t)

	t = time.Now()
	r.pr = sched.Build(r.bs, asg)
	r.ms["sched.ms"] = msSince(t)

	r.exact = etree.FactorStats(r.sym.ColCounts)
	r.bs.ForEachOp(func(op blocks.Op) {
		if op.Kind == blocks.BMOD {
			r.bmodFlops += op.Flops
		}
	})
	return r, nil
}

// analysisMs is the replay's total analysis time.
func (r *replay) analysisMs() float64 {
	s := 0.0
	for _, v := range r.ms {
		s += v
	}
	return s
}

// servedOrderings are the orderings discoverServed tries, most likely first.
var servedOrderings = []order.Method{
	order.Natural, order.MinDegree, order.MinDegreeApprox,
	order.NDHybrid, order.NDGraph, order.CuthillMcKee,
}

// discoverServed finds the ordering whose analysis of a reproduces the
// nnz(L) and flop count the service reported, so the replay follows what
// the service really does rather than what it is documented to do. No
// match is an error: the replay would otherwise report fiction.
func discoverServed(a *sparse.Matrix, nnzL, flops int64) (order.Method, *replay, error) {
	for _, m := range servedOrderings {
		r, err := analyze(a, m)
		if err != nil {
			continue
		}
		if r.exact.NZinL == nnzL && r.exact.Flops == flops {
			return m, r, nil
		}
	}
	return 0, nil, fmt.Errorf("no ordering reproduces the served nnz_l=%d flops=%d", nnzL, flops)
}

// factorRun is one replayed numeric factorization, timed per layer.
type factorRun struct {
	newMs, reloadMs, runMs float64
	bfac, bdiv, bmod       float64 // span time per op kind, ms
	bmodFlops              int64
	busy                   []float64
	stats                  fanout.Stats
}

// coldFactor replays Plan.FactorValuesContext: numeric.New, the executor
// (with the benchmark's span recorder attached), then the first
// factorization of values.
func (r *replay) coldFactor(values []float64) (factorRun, error) {
	t := time.Now()
	nf, err := numeric.New(r.bs, r.pa)
	if err != nil {
		return factorRun{}, err
	}
	newMs := msSince(t)
	r.nf = nf
	r.ex = fanout.NewExecutorMode(nf, r.pr, fanout.ModeWorkStealing)
	r.rec = r.ex.NewMeasureRecorder()
	r.rec.Enable()
	fr, err := r.refactor(values)
	fr.newMs = newMs
	return fr, err
}

// refactor replays Factor.Refactor: gather values through the value map,
// numeric.Factor.Reload, then one executor run with spans recorded.
func (r *replay) refactor(values []float64) (factorRun, error) {
	fr := factorRun{bmodFlops: r.bmodFlops}
	t := time.Now()
	if r.pav == nil {
		r.pav = make([]float64, len(values))
	}
	for q, src := range r.vmap {
		r.pav[q] = values[src]
	}
	if err := r.nf.Reload(r.pav); err != nil {
		return fr, err
	}
	fr.reloadMs = msSince(t)

	r.rec.Reset()
	t = time.Now()
	st, err := r.ex.Run()
	fr.runMs = msSince(t)
	if err != nil {
		return fr, err
	}
	fr.stats = st
	if d := r.rec.Dropped(); d > 0 {
		return fr, fmt.Errorf("span recorder dropped %d spans", d)
	}
	fr.busy = make([]float64, r.rec.Procs())
	for _, s := range r.rec.Spans() {
		d := float64(s.End-s.Start) / 1e6
		switch s.Op {
		case obs.OpBFAC:
			fr.bfac += d
		case obs.OpBDIV:
			fr.bdiv += d
		case obs.OpBMOD:
			fr.bmod += d
		default:
			continue
		}
		fr.busy[s.Proc] += d
	}
	return fr, nil
}

// solve replays Factor.Solve on the replayed factor and returns x in the
// original index space with the solve's time.
func (r *replay) solve(b []float64) ([]float64, float64) {
	t := time.Now()
	x := r.perm.ApplyInverse(r.nf.Solve(r.perm.Apply(b)))
	return x, msSince(t)
}

// layers collects per-operation layer samples across replays; each
// reported per-layer time is the median over the replayed operations.
type layers struct {
	s map[string]series
}

func newLayers() *layers { return &layers{s: map[string]series{}} }

func (l *layers) add(name string, v float64) { l.s[name] = append(l.s[name], v) }

func (l *layers) median(name string) float64 { return l.s[name].quantile(0.5) }

// addRun records one replayed factorization.
func (l *layers) addRun(fr factorRun) {
	l.add("numeric.reload_ms", fr.reloadMs)
	l.add("fanout.run_ms", fr.runMs)
	l.add("kernels.bfac_ms", fr.bfac)
	l.add("kernels.bdiv_ms", fr.bdiv)
	l.add("kernels.bmod_ms", fr.bmod)
	l.add("kernels.bmod_gflops", float64(fr.bmodFlops)/(fr.bmod*1e6))
	sum, max := 0.0, 0.0
	for _, b := range fr.busy {
		sum += b
		if b > max {
			max = b
		}
	}
	p := float64(len(fr.busy))
	l.add("fanout.busy_frac", sum/(p*fr.runMs))
	if max > 0 {
		l.add("fanout.realized_balance", sum/(p*max))
	}
	l.add("fanout.steals", float64(fr.stats.Steals))
	l.add("fanout.messages", float64(fr.stats.Messages))
	l.add("fanout.bytes", float64(fr.stats.Bytes))
}

// addAnalysis records one replayed analysis and its cold numeric factor.
func (l *layers) addAnalysis(r *replay, cold factorRun) {
	for name, v := range r.ms {
		l.add(name, v)
	}
	l.add("numeric.new_ms", cold.newMs)
	an := r.analysisMs()
	l.add("analysis.share", an/(an+cold.newMs+cold.reloadMs+cold.runMs))
}

// fill writes the per-layer metrics into res. served is the replay of the
// matrix the workload's service (or plan) analyzed, servedFlops the flops
// it reported, and mindegFlops those of a MinDegree plan of that matrix.
func (l *layers) fill(res *result, served *replay, mindegFlops int64, overhead float64) {
	ms := func(name string) { res.layer[name] = metric{l.median(name), "ms"} }
	for _, n := range []string{
		"kernels.bfac_ms", "kernels.bdiv_ms", "kernels.bmod_ms", "fanout.run_ms",
		"numeric.reload_ms", "numeric.new_ms", "numeric.solve_ms",
		"order.ms", "symbolic.ms", "blocks.ms", "mapping.ms", "sched.ms",
	} {
		ms(n)
	}
	res.layer["kernels.bmod_gflops"] = metric{l.median("kernels.bmod_gflops"), "GFlop/s"}
	res.layer["kernels.mulsub_peak_gflops"] = metric{mulSubPeak(), "GFlop/s"}
	res.layer["fanout.busy_frac"] = metric{l.median("fanout.busy_frac"), "fraction"}
	res.layer["fanout.realized_balance"] = metric{l.median("fanout.realized_balance"), "fraction"}
	res.layer["fanout.steals"] = metric{l.median("fanout.steals"), "count"}
	res.layer["fanout.messages"] = metric{l.median("fanout.messages"), "count"}
	res.layer["fanout.bytes"] = metric{l.median("fanout.bytes"), "bytes"}
	res.layer["analysis.share"] = metric{l.median("analysis.share"), "fraction"}
	res.layer["symbolic.nnz_l"] = metric{float64(served.exact.NZinL), "count"}
	res.layer["symbolic.flops"] = metric{float64(served.exact.Flops), "flop"}
	res.layer["order.flops_vs_mindeg"] = metric{float64(served.exact.Flops) / float64(mindegFlops), "ratio"}
	res.layer["loadbal.overall"] = metric{loadbal.Compute(served.bs, served.mp).Overall, "fraction"}
	eff, err := efficiencyP64(served)
	if err != nil {
		res.checkFail("simulating P=64: %v", err)
	}
	res.layer["machine.efficiency_p64"] = metric{eff, "fraction"}
	res.layer["trace.overhead_frac"] = metric{overhead, "fraction"}
	for name, s := range l.s {
		res.samples["replay."+name] = len(s)
	}
}

// mindegFlops is the flop count of a MinDegree plan of a.
func mindegFlops(a *sparse.Matrix) (int64, error) {
	plan, err := core.NewPlan(a, core.Options{Ordering: order.MinDegree})
	if err != nil {
		return 0, err
	}
	return plan.Exact.Flops, nil
}

// efficiencyP64 is the simulator's predicted parallel efficiency of the
// replayed structure at P = 64 under the service's mapping heuristics: the
// paper's measure, reported beside the realized balance, not instead of it.
func efficiencyP64(r *replay) (float64, error) {
	const p = 64
	mp := mapping.New(mapping.BestGrid(p), mapping.ID, mapping.CY, r.bs, r.depth)
	asg := sched.Assignment{Map: mp, Dom: domains.Select(r.sym, r.bs, p, domainBeta)}
	res, err := machine.Simulate(sched.Build(r.bs, asg), machine.Paragon())
	if err != nil {
		return 0, err
	}
	return res.Efficiency(), nil
}

// mulSubPeak measures kernels.MulSub on dense 48-wide blocks, the BMOD
// roofline reference: the best of five 20 ms bursts, in GFlop/s.
func mulSubPeak() float64 {
	const w = core.DefaultBlockSize
	r := rand.New(rand.NewSource(1))
	a, b, c := make([]float64, w*w), make([]float64, w*w), make([]float64, w*w)
	for i := range a {
		a[i], b[i] = r.Float64(), r.Float64()
	}
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		calls := 0
		t := time.Now()
		for time.Since(t) < 20*time.Millisecond {
			for k := 0; k < 16; k++ {
				kernels.MulSub(c, w, a, w, b, w, w, idx, idx, false, nil, nil)
			}
			calls += 16
		}
		if g := float64(calls) * 2 * w * w * w / float64(time.Since(t).Nanoseconds()); g > best {
			best = g
		}
	}
	return best
}
