package main

import (
	"fmt"
	"runtime"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

const (
	// coldSetupReps is how many services cold-pattern constructs per run;
	// setup_s is the median. Construction takes well under a millisecond,
	// so many are needed for a steady median.
	coldSetupReps = 50
	// coldFillCap bounds the warm-up that fills the service's caches.
	coldFillCap = 200
	// coldReplays is how many traced operations are replayed layer by
	// layer.
	coldReplays = 3
)

// coldOp is one cold-pattern operation's input.
type coldOp struct {
	m    *sparse.Matrix
	norm float64
	body []byte
	b    []float64
}

// coldInput is cold-pattern's i-th input: the mesh under a fresh seeded
// symmetric relabeling, so its pattern is new to the service, and a
// seeded right-hand side.
func coldInput(base *sparse.Matrix, seed uint64, i int) (coldOp, error) {
	m, err := base.Permute(rngFor(seed, streamRelabel, i).Perm(base.N))
	if err != nil {
		return coldOp{}, err
	}
	return coldOp{m: m, norm: normInf(m), body: cscBody(m), b: gaussian(m.N, rngFor(seed, streamRHS, i))}, nil
}

// coldSample is one completed cold-pattern operation.
type coldSample struct {
	in           coldOp
	fr           factorReply
	total, solve time.Duration
}

// runColdPattern is the cold-pattern workload: one closed-loop HTTP client
// posting never-seen patterns of the BCSSTK31 CI analogue to /v1/factor,
// then one /v1/solve, and verifying x. Every operation misses the plan
// cache, so request decode, plan-cache insert and evict, ordering,
// symbolic analysis, partitioning, mapping and scheduling do most of the
// work. A sample runs from the factor POST to a verified x.
func runColdPattern(c config) (*result, error) {
	base := gen.IrregularMesh(c.pick(2200, 300), 9, 3, 31)
	res := newResult()
	heap0 := liveHeapMB()

	var sv *service
	var setup series
	for i := 0; i < coldSetupReps; i++ {
		if sv != nil {
			sv.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if sv, err = startService(1); err != nil {
			return nil, fmt.Errorf("starting the service: %w", err)
		}
		setup.add(time.Since(t))
	}
	defer sv.close()

	op := func(i int) (coldSample, bool) {
		res.attempted++
		in, err := coldInput(base, c.seed, i)
		if err != nil {
			res.fail("op %d: input: %v", i, err)
			return coldSample{}, false
		}
		t := time.Now()
		fr, err := sv.factor(in.body)
		var x []float64
		var solve time.Duration
		if err == nil {
			id := fr.ID
			if i == c.sabotage {
				id += "0"
			}
			ts := time.Now()
			x, err = sv.solve(solveBody(id, in.b))
			solve = time.Since(ts)
		}
		if err == nil {
			err = checkSolution(in.m, in.norm, x, in.b)
		}
		total := time.Since(t)
		if err != nil {
			res.fail("op %d: %v", i, err)
			return coldSample{}, false
		}
		return coldSample{in, fr, total, solve}, true
	}

	// Warm up until the plan cache has evicted: from then on every
	// operation pays an insert and an eviction, and the heap holds full
	// caches, as on a long-running service.
	i := 0
	for ; i < coldFillCap; i++ {
		if i >= warmOps {
			doc, err := sv.metrics()
			if err != nil {
				return nil, fmt.Errorf("reading /metrics: %w", err)
			}
			if doc.Cache.Evictions > 0 {
				break
			}
		}
		op(i)
	}
	res.samples["warmup"] = i
	var lat series
	start := time.Now()
	for win := newWindow(c.window, c.need(0.9)); win.open(len(lat)); i++ {
		if s, ok := op(i); ok {
			lat.add(s.total)
		}
	}
	elapsed := time.Since(start).Seconds()
	res.setEndToEnd(setup, lat, float64(len(lat))/elapsed, liveHeapMB()-heap0)
	res.latencies("solution", lat, 0.9)

	if c.trace {
		if err := traceColdPattern(c, res, sv, lat, op); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// traceColdPattern is cold-pattern's traced window: the same operations
// with the timing middleware on, then the first few replayed layer by
// layer.
func traceColdPattern(c config, res *result, sv *service, untraced series, op func(int) (coldSample, bool)) error {
	sv.mw.on.Store(true)
	var traced, solves series
	var kept []coldSample
	for i, win := tracedOffset, newWindow(c.window/2, 0); win.open(len(traced)); i++ {
		if s, ok := op(i); ok {
			traced.add(s.total)
			solves.add(s.solve)
			if len(kept) < coldReplays {
				kept = append(kept, s)
			}
		}
	}
	sv.mw.on.Store(false)
	res.samples["traced"] = len(traced)
	if len(kept) == 0 {
		return fmt.Errorf("traced window completed no operation")
	}
	sv.mw.handlerLayers(res)
	if err := sv.scrape(res); err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	res.layer["http.solve_overhead_ms"] = metric{solves.quantile(0.5) - res.layer["server.solve_handler_ms"].Value, "ms"}

	l := newLayers()
	var method order.Method
	var served *replay
	for k, s := range kept {
		ms, err := decodeMs(s.in.body)
		if err != nil {
			return fmt.Errorf("decoding a served body: %w", err)
		}
		l.add("server.decode_ms", ms)
		var rp *replay
		if k == 0 {
			if method, rp, err = discoverServed(s.in.m, s.fr.NNZL, s.fr.Flops); err != nil {
				res.checkFail("replay consistency: %v", err)
				return nil
			}
			served = rp
			res.notes = append(res.notes, "served ordering: "+method.String())
		} else {
			if rp, err = analyze(s.in.m, method); err != nil {
				return err
			}
			if rp.exact.NZinL != s.fr.NNZL || rp.exact.Flops != s.fr.Flops {
				res.checkFail("replay consistency: replay nnz_l=%d flops=%d, served nnz_l=%d flops=%d",
					rp.exact.NZinL, rp.exact.Flops, s.fr.NNZL, s.fr.Flops)
			}
		}
		cold, err := rp.coldFactor(s.in.m.Val)
		if err != nil {
			return fmt.Errorf("replaying a cold factor: %w", err)
		}
		l.addAnalysis(rp, cold)
		l.addRun(cold)
		x, ms := rp.solve(s.in.b)
		l.add("numeric.solve_ms", ms)
		if err := checkSolution(s.in.m, s.in.norm, x, s.in.b); err != nil {
			res.checkFail("replayed solve: %v", err)
		}
	}
	mindeg, err := mindegFlops(kept[0].in.m)
	if err != nil {
		return err
	}
	l.fill(res, served, mindeg, traced.quantile(0.5)/untraced.quantile(0.5)-1)
	res.layer["server.decode_ms"] = metric{l.median("server.decode_ms"), "ms"}
	return nil
}
