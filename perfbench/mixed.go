package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/gen"
)

const (
	// mixedSetupReps is how many services serve-mixed constructs and
	// cold-factors GRID150 on per run; setup_s is the median.
	mixedSetupReps = 5
	// refactorEvery makes every tenth operation of client 1 a refactor.
	refactorEvery = 10
	// mixedReplays is how many refactors and solves are replayed layer
	// by layer.
	mixedReplays = 5
)

// mixed is serve-mixed's shared state: one warm factor read by two
// closed-loop clients while client 1 also rewrites it.
type mixed struct {
	sv     *service
	in     *pool
	bodies [][]byte // factor bodies, one per value set
	solves [][]byte // solve bodies, one per right-hand side
	// Refactor k posts value set k mod len(in.mats); value set 0 is the
	// set-up factor's. started counts refactors posted, done the last one
	// answered, so a solve sent after done=lo and answered before
	// started=hi was computed from a version in [lo, hi].
	started, done atomic.Int64
	nsolves       atomic.Int64
}

// clientStats is what one client measured.
type clientStats struct {
	solve, refactor   series
	attempted, failed int
	failures          []string
}

func (cs *clientStats) fail(format string, args ...any) {
	cs.failed++
	if len(cs.failures) < 4 {
		cs.failures = append(cs.failures, fmt.Sprintf(format, args...))
	}
}

// runServeMixed is the serve-mixed workload: two closed-loop HTTP clients
// on one warm GRID150 factor. Client 0 only solves; client 1 solves and
// refactors the same pattern with new values on every tenth operation, so
// solves contend with refactors for the factor entry's lock.
func runServeMixed(c config) (*result, error) {
	base := gen.Grid2D(c.pick(150, 24))
	in := newPool(base, c.seed, 4, 16)
	mx := &mixed{in: in}
	for _, m := range in.mats {
		mx.bodies = append(mx.bodies, cscBody(m))
	}
	res := newResult()
	heap0 := liveHeapMB()

	var setup series
	var fr0 factorReply
	for i := 0; i < mixedSetupReps; i++ {
		if mx.sv != nil {
			mx.sv.close()
		}
		runtime.GC()
		t := time.Now()
		sv, err := startService(2)
		if err != nil {
			return nil, fmt.Errorf("starting the service: %w", err)
		}
		mx.sv = sv
		if fr0, err = sv.factor(mx.bodies[0]); err != nil {
			sv.close()
			return nil, fmt.Errorf("cold factor: %w", err)
		}
		setup.add(time.Since(t))
	}
	defer mx.sv.close()
	// The solve bodies need the factor id, so they are built after
	// set-up; their bytes are taken out of retained_heap_mb below.
	bodyMB := 0.0
	for _, b := range in.rhs {
		mx.solves = append(mx.solves, solveBody(fr0.ID, b))
		bodyMB += float64(cap(mx.solves[len(mx.solves)-1])) / (1 << 20)
	}

	var cs clientStats
	for j := 0; j < warmOps; j++ {
		mx.op(&cs, 0, j, -1)
	}
	mx.nsolves.Store(0)
	start := time.Now()
	st := mx.phase(newWindow(c.window, c.need(0.95)), c.sabotage)
	elapsed := time.Since(start).Seconds()
	st.attempted += cs.attempted
	st.failed += cs.failed
	st.failures = append(cs.failures, st.failures...)
	res.attempted, res.failed = st.attempted, st.failed
	for _, f := range st.failures {
		res.reason("%s", f)
	}
	solvesPerSec := float64(len(st.solve)) / elapsed
	res.setEndToEnd(setup, st.solve, solvesPerSec, liveHeapMB()-heap0-bodyMB)
	res.latencies("solve", st.solve, 0.95)
	res.latencies("refactor", st.refactor, 0.9)
	res.named["solves_per_s"] = metric{solvesPerSec, "1/s"}

	if c.trace {
		if err := mx.trace(c, res, fr0, st.solve); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// phase runs both clients until the window closes and merges their stats.
func (mx *mixed) phase(win window, sabotage int) clientStats {
	stats := make([]clientStats, 2)
	var wg sync.WaitGroup
	for id := range stats {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; win.open(int(mx.nsolves.Load())); j++ {
				mx.op(&stats[id], id, j, sabotage)
			}
		}(id)
	}
	wg.Wait()
	var all clientStats
	for _, s := range stats {
		all.solve = append(all.solve, s.solve...)
		all.refactor = append(all.refactor, s.refactor...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.failures = append(all.failures, s.failures...)
	}
	return all
}

// op runs client id's operation j: a refactor on every tenth operation of
// client 1, otherwise a verified solve. Sabotage sends operation j of
// client 0 to a factor id that does not exist.
func (mx *mixed) op(cs *clientStats, id, j, sabotage int) {
	cs.attempted++
	if id == 1 && j%refactorEvery == refactorEvery-1 {
		k := mx.started.Add(1)
		t := time.Now()
		fr, err := mx.sv.factor(mx.bodies[k%int64(len(mx.bodies))])
		d := time.Since(t)
		if err == nil && !(fr.CacheHit && fr.Refactored) {
			err = fmt.Errorf("same-pattern post answered cache_hit=%v refactored=%v", fr.CacheHit, fr.Refactored)
		}
		if err != nil {
			cs.fail("client %d op %d: refactor: %v", id, j, err)
			return
		}
		mx.done.Store(k)
		cs.refactor.add(d)
		return
	}
	r := (j*2 + id) % len(mx.solves)
	body := mx.solves[r]
	if id == 0 && j == sabotage {
		body = solveBody("0"+fmt.Sprint(j), mx.in.rhs[r])
	}
	lo := mx.done.Load()
	t := time.Now()
	x, err := mx.sv.solve(body)
	d := time.Since(t)
	if err == nil {
		err = mx.verify(x, r, lo, mx.started.Load())
	}
	if err != nil {
		cs.fail("client %d op %d: solve: %v", id, j, err)
		return
	}
	cs.solve.add(d)
	mx.nsolves.Add(1)
}

// verify accepts x if it solves right-hand side r under any factor
// version the solve could have read.
func (mx *mixed) verify(x []float64, r int, lo, hi int64) error {
	var err error
	for v := lo; v <= hi; v++ {
		k := int(v % int64(len(mx.in.mats)))
		if err = checkSolution(mx.in.mats[k], mx.in.norms[k], x, mx.in.rhs[r]); err == nil {
			return nil
		}
	}
	return err
}

// trace is serve-mixed's traced window: the same traffic with the timing
// middleware on, then the set-up factor and a few refactors and solves
// replayed layer by layer.
func (mx *mixed) trace(c config, res *result, fr0 factorReply, untraced series) error {
	mx.sv.mw.on.Store(true)
	mx.nsolves.Store(0)
	st := mx.phase(newWindow(c.window/2, 0), -1)
	mx.sv.mw.on.Store(false)
	res.attempted += st.attempted
	res.failed += st.failed
	for _, f := range st.failures {
		res.reason("%s", f)
	}
	res.samples["traced"] = len(st.solve)
	mx.sv.mw.handlerLayers(res)
	if err := mx.sv.scrape(res); err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	res.layer["http.solve_overhead_ms"] = metric{st.solve.quantile(0.5) - res.layer["server.solve_handler_ms"].Value, "ms"}

	l := newLayers()
	for k := 0; k < mixedReplays; k++ {
		ms, err := decodeMs(mx.bodies[1])
		if err != nil {
			return fmt.Errorf("decoding a served body: %w", err)
		}
		l.add("server.decode_ms", ms)
	}
	a0 := mx.in.mats[0]
	method, rp, err := discoverServed(a0, fr0.NNZL, fr0.Flops)
	if err != nil {
		res.checkFail("replay consistency: %v", err)
		return nil
	}
	res.notes = append(res.notes, "served ordering: "+method.String())
	cold, err := rp.coldFactor(a0.Val)
	if err != nil {
		return fmt.Errorf("replaying the cold factor: %w", err)
	}
	l.addAnalysis(rp, cold)
	for k := 1; k <= mixedReplays; k++ {
		m := mx.in.mats[k%len(mx.in.mats)]
		run, err := rp.refactor(m.Val)
		if err != nil {
			return fmt.Errorf("replaying a refactor: %w", err)
		}
		l.addRun(run)
		b := mx.in.rhs[k]
		x, ms := rp.solve(b)
		l.add("numeric.solve_ms", ms)
		if err := checkSolution(m, mx.in.norms[k%len(mx.in.mats)], x, b); err != nil {
			res.checkFail("replayed solve: %v", err)
		}
	}
	mindeg, err := mindegFlops(a0)
	if err != nil {
		return err
	}
	l.fill(res, rp, mindeg, st.solve.quantile(0.5)/untraced.quantile(0.5)-1)
	res.layer["server.decode_ms"] = metric{l.median("server.decode_ms"), "ms"}
	return nil
}
