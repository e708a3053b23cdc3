package fanout

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
)

// TestRecorderTrace runs an instrumented parallel factorization (race-
// tested under the CI fanout race step) and checks both the span
// accounting — exactly one completing op per block, exactly one BMOD per
// scheduled modification — and that the exported file is valid Chrome
// trace-event JSON. Exact accounting needs the drop-free measure
// recorder: NewRecorder's lanes are fixed-capacity and may legitimately
// shed spans when stealing piles work onto one lane.
func TestRecorderTrace(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	rec := ex.NewMeasureRecorder()
	rec.Enable()
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("measure recorder dropped %d spans", rec.Dropped())
	}

	var mods int32
	for _, nm := range pr.NMods {
		mods += nm
	}
	var bfacdiv, bmod int32
	for _, s := range rec.Spans() {
		if s.End < s.Start {
			t.Fatalf("backwards span %+v", s)
		}
		switch s.Op {
		case obs.OpBFAC, obs.OpBDIV:
			if s.Block < 0 || int(s.Block) >= pr.NBlocks {
				t.Fatalf("span block %d out of range", s.Block)
			}
			bfacdiv++
		case obs.OpBMOD:
			if s.Block < 0 || int(s.Block) >= pr.NBlocks {
				t.Fatalf("span block %d out of range", s.Block)
			}
			bmod++
		case obs.OpSteal:
			// Block is the stolen destination, Src the victim worker.
			if s.Block < 0 || int(s.Block) >= pr.NBlocks {
				t.Fatalf("steal span block %d out of range", s.Block)
			}
			if s.Src < 0 || int(s.Src) >= pr.NProc || s.Src == s.Proc {
				t.Fatalf("steal span victim %d invalid (thief %d)", s.Src, s.Proc)
			}
		case obs.OpIdle:
			if s.Block != -1 || s.Src != -1 {
				t.Fatalf("idle span carries block/src %d/%d", s.Block, s.Src)
			}
		default:
			t.Fatalf("unknown span op %v", s.Op)
		}
	}
	if int(bfacdiv) != pr.NBlocks {
		t.Fatalf("recorded %d BFAC/BDIV spans for %d blocks", bfacdiv, pr.NBlocks)
	}
	if bmod != mods {
		t.Fatalf("recorded %d BMOD spans for %d scheduled modifications", bmod, mods)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, "fanout test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) < int(bfacdiv+bmod) {
		t.Fatalf("trace has %d events for %d spans", len(doc.TraceEvents), bfacdiv+bmod)
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
	}

	// A second run on the reset recorder must reproduce the same per-kind
	// op counts (steal/idle spans depend on scheduling and may differ):
	// the instrumented executor stays reusable.
	rec.Reset()
	if err := f.Reload(pm.Val); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	var bfacdiv2, bmod2 int32
	for _, s := range rec.Spans() {
		switch s.Op {
		case obs.OpBFAC, obs.OpBDIV:
			bfacdiv2++
		case obs.OpBMOD:
			bmod2++
		}
	}
	if bfacdiv2 != bfacdiv || bmod2 != bmod {
		t.Fatalf("second run recorded %d/%d op spans, want %d/%d", bfacdiv2, bmod2, bfacdiv, bmod)
	}
}

// TestRecorderDisabledAllocs extends the steady-state allocation guarantee
// to the instrumented executor: with a recorder attached but disabled, a
// full reload-and-refactor cycle stays within the same per-run control-
// state budget as the uninstrumented path — the gate adds zero
// allocations.
func TestRecorderDisabledAllocs(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 1, Pc: 1}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	ex.NewRecorder() // attached, never enabled

	const runs = 5
	avg := testing.AllocsPerRun(runs, func() {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 24 // same as TestExecutorSteadyStateAllocs
	if avg > budget {
		t.Fatalf("disabled-recorder run averaged %.1f allocations; want ≤ %d", avg, budget)
	}
}

// The overhead gate estimates what an attached-but-disabled recorder adds
// to a factorization as (cost of one disabled Start/Record pair) × (pairs
// per run) ÷ (run time). Each factor is measured where it is stable: the
// pair in a tight loop, keeping the fastest of several loops (noise only
// ever adds time); the pair count from an enabled recording of one run;
// the run time as a median. Comparing whole runs with and without the
// recorder instead asks a 2% question of run times that spread by more
// than 2% on a shared host. The estimate leaves out indirect effects of
// the compiled-in gate, such as code size in the kernels' callers.

// overheadBudget is the gate's limit on the disabled recorder's share of
// a factorization.
const overheadBudget = 0.02

// callNs returns the cost in nanoseconds of one call of op: the fastest of
// several timed loops, less the same loop over an empty call.
func callNs(op func(i int)) float64 {
	loop := func(f func(int)) float64 {
		const n = 1 << 15
		best := math.Inf(1)
		for rep := 0; rep < 9; rep++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f(i)
			}
			if d := float64(time.Since(t0).Nanoseconds()) / n; d < best {
				best = d
			}
		}
		return best
	}
	return math.Max(0, loop(op)-loop(func(int) {}))
}

// overheadRun is the factorization the gate prices the recorder against.
type overheadRun struct {
	ex    *Executor
	spans int     // Start/Record pairs one run executes
	runNs float64 // median run time without a recorder
}

// newOverheadRun builds the gate's factorization on a 1×1 grid, so every
// block operation runs on one goroutine without scheduling variance, and
// measures its pairs per run and run time.
func newOverheadRun(t *testing.T) overheadRun {
	t.Helper()
	_, bs, pm := setup(t, gen.IrregularMesh(600, 7, 3, 57), ord.MinDegree, 0, 16)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 1, Pc: 1}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	run := func() time.Duration {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	rec := ex.NewMeasureRecorder()
	rec.Enable()
	run()
	spans := len(rec.Spans()) + int(rec.Dropped())
	ex.SetRecorder(nil)
	if spans == 0 {
		t.Fatal("an enabled recording of one run holds no spans")
	}
	times := make([]float64, 15)
	for i := range times {
		times[i] = float64(run().Nanoseconds())
	}
	sort.Float64s(times)
	return overheadRun{ex: ex, spans: spans, runNs: times[len(times)/2]}
}

// share is the estimated fraction of a run that a call costing callNs
// adds when executed once per span.
func (o overheadRun) share(callNs float64) float64 {
	return callNs * float64(o.spans) / o.runNs
}

// disabledCall is one Start/Record pair on an attached recorder, as the
// executor issues it around every block operation.
func (o overheadRun) disabledCall() func(i int) {
	rec := o.ex.NewRecorder() // attached, never enabled
	return func(i int) {
		t0 := rec.Start()
		rec.Record(0, obs.OpBMOD, int32(i), -1, t0)
	}
}

// TestRecorderDisabledOverhead is the CI overhead gate: the disabled
// recorder may cost at most 2% of a factorization. Timings need a quiet
// host, so the check only runs when OBS_OVERHEAD_CHECK=1 (the dedicated CI
// step sets it); the allocation half of the guarantee is covered
// unconditionally above.
func TestRecorderDisabledOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing comparison")
	}
	o := newOverheadRun(t)
	ns := callNs(o.disabledCall())
	share := o.share(ns)
	t.Logf("%d spans per run, run %.0f µs, disabled call %.2f ns: share %.4f%%",
		o.spans, o.runNs/1e3, ns, share*100)
	if share > overheadBudget {
		t.Fatalf("disabled recorder costs %.2f%% of a factorization (> %.0f%%)", share*100, overheadBudget*100)
	}
}

// TestRecorderDisabledOverheadDetectsInjected shows the gate's estimator
// fails a recorder call made 5% of a run more expensive: the disabled call
// plus a spin loop sized, from its own measured cost, to 5% of the run
// time spread over the run's spans. Its calibration and measurement are
// timed at different moments, so like the gate it runs only when
// OBS_OVERHEAD_CHECK=1.
func TestRecorderDisabledOverheadDetectsInjected(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing comparison")
	}
	o := newOverheadRun(t)
	var sink uint64
	spin := func(k int) {
		x := sink
		for j := 0; j < k; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink = x
	}
	const calib = 1024
	perIter := callNs(func(int) { spin(calib) }) / calib
	if perIter <= 0 {
		t.Fatal("spin loop measured no time")
	}
	k := int(math.Ceil(0.05 * o.runNs / float64(o.spans) / perIter))
	call := o.disabledCall()
	share := o.share(callNs(func(i int) {
		call(i)
		spin(k)
	}))
	t.Logf("injected %d spin iterations (%.1f ns) per call: estimated share %.2f%%", k, float64(k)*perIter, share*100)
	if share <= overheadBudget {
		t.Fatalf("estimator passed an injected 5%% overhead: share %.2f%% ≤ %.0f%%", share*100, overheadBudget*100)
	}
}

// BenchmarkFanoutRecorder quantifies the instrumentation cost next to
// BenchmarkExecutorRefactor: none (no recorder), gated (attached,
// disabled), recording (enabled, reset between runs).
func BenchmarkFanoutRecorder(b *testing.B) {
	_, bs, pm := setup(b, gen.IrregularMesh(600, 7, 3, 57), ord.MinDegree, 0, 16)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	flops := bs.TotalFlops
	for _, mode := range []string{"none", "gated", "recording"} {
		b.Run(mode, func(b *testing.B) {
			var rec *obs.Recorder
			switch mode {
			case "none":
				ex.SetRecorder(nil)
			case "gated":
				ex.NewRecorder()
			case "recording":
				rec = ex.NewRecorder()
				rec.Enable()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec != nil {
					rec.Reset()
				}
				if err := f.Reload(pm.Val); err != nil {
					b.Fatal(err)
				}
				if _, err := ex.Run(); err != nil {
					b.Fatal(err)
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(flops)*float64(b.N)/sec/1e9, "GFlop/s")
			}
		})
	}
}
