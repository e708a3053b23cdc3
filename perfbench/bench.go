package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"blockfanout/internal/sparse"
)

const (
	// residualTol is the largest normwise backward error
	// ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) a solve may show and still count.
	residualTol = 1e-10
	// seqTol is the entrywise bar a parallel factor must meet against the
	// sequential factor of the same values: |par − seq| ≤ seqTol·(1+|seq|).
	seqTol = 1e-12
	// domainBeta is the domain/root split the service's plans use.
	domainBeta = 2
	// warmOps are run, verified and counted before each timed window, but
	// not timed, so lazy set-up and first-touch costs stay out of the
	// latency samples.
	warmOps = 2
	// tracedOffset starts the input index of a traced window, so the
	// traced operations' inputs depend only on the seed, not on how many
	// operations the untraced window completed.
	tracedOffset = 1 << 20
)

// config is one run's settings.
type config struct {
	seed   uint64
	window time.Duration // length of the measured window
	trace  bool          // add a traced window and the per-layer replay
	// small swaps in reduced inputs and drops the sample minimums; the
	// benchmark's own tests use it.
	small bool
	// sabotage is the index of an operation the benchmark deliberately
	// spoils (a wrong factor id, or a tampered solution), so tests can see
	// it counted as failed; -1 spoils nothing.
	sabotage int
}

// pick returns the full-size value, or the reduced one in small mode.
func (c config) pick(full, small int) int {
	if c.small {
		return small
	}
	return full
}

// need is the number of samples a run must collect before quantile q has
// at least ten samples beyond it.
func (c config) need(q float64) int {
	if c.small {
		return 0
	}
	return int(math.Ceil(10 / (1 - q)))
}

// workload is one named traffic mix.
type workload struct {
	name    string
	clients int // closed-loop client goroutines
	run     func(config) (*result, error)
}

var workloads = map[string]workload{
	"refactor-irregular": {name: "refactor-irregular", clients: 1, run: runRefactorIrregular},
	"cold-pattern":       {name: "cold-pattern", clients: 1, run: runColdPattern},
	"serve-mixed":        {name: "serve-mixed", clients: 2, run: runServeMixed},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured.
type result struct {
	attempted, failed int
	// checkFailed is set when a run-level check failed: the parallel
	// factor against the sequential one, or the replay against the
	// service's answer.
	checkFailed bool
	failures    []string // the first few failure reasons
	// endToEnd holds the BENCHMARK.json end-to-end metrics; named holds
	// the same numbers under workload-specific names (refactor_ms_p50,
	// solve_ms_p95, ...) together with the ones only some workloads have.
	endToEnd map[string]metric
	named    map[string]metric
	layer    map[string]metric
	samples  map[string]int
	notes    []string
}

func newResult() *result {
	return &result{
		endToEnd: map[string]metric{},
		named:    map[string]metric{},
		layer:    map[string]metric{},
		samples:  map[string]int{},
	}
}

func (r *result) correct() bool { return r.attempted > 0 && r.failed == 0 && !r.checkFailed }

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.reason(format, args...)
}

// checkFail records a failed run-level check.
func (r *result) checkFail(format string, args ...any) {
	r.checkFailed = true
	r.reason(format, args...)
}

// reason keeps the first few failure messages for standard error.
func (r *result) reason(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// perLayerNames are the BENCHMARK.json per-layer metrics: the layers every
// workload exercises. Server-side metrics that exist only on the HTTP
// workloads are printed in the report lines but are not part of the set.
var perLayerNames = []string{
	"kernels.bfac_ms", "kernels.bdiv_ms", "kernels.bmod_ms",
	"kernels.bmod_gflops", "kernels.mulsub_peak_gflops",
	"fanout.run_ms", "fanout.busy_frac", "fanout.realized_balance",
	"fanout.steals", "fanout.messages", "fanout.bytes",
	"numeric.reload_ms", "numeric.new_ms", "numeric.solve_ms",
	"order.ms", "symbolic.ms", "blocks.ms", "mapping.ms", "sched.ms", "analysis.share",
	"symbolic.nnz_l", "symbolic.flops", "order.flops_vs_mindeg",
	"loadbal.overall", "machine.efficiency_p64",
	"trace.overhead_frac",
}

// perLayer returns the BENCHMARK.json per-layer subset of r.layer.
func (r *result) perLayer() map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		if m, ok := r.layer[n]; ok {
			out[n] = m
		}
	}
	return out
}

// setEndToEnd fills the BENCHMARK.json end-to-end metrics from the
// workload's primary operation, and their workload-specific names.
func (r *result) setEndToEnd(setup, op series, opsPerSec, heapMB float64) {
	r.endToEnd["setup_s"] = metric{setup.quantile(0.5) / 1e3, "s"}
	r.endToEnd["op_ms_p50"] = metric{op.quantile(0.5), "ms"}
	r.endToEnd["op_ms_p90"] = metric{op.quantile(0.9), "ms"}
	r.endToEnd["ops_per_s"] = metric{opsPerSec, "1/s"}
	r.endToEnd["retained_heap_mb"] = metric{heapMB, "MB"}
	r.named["setup_s"] = r.endToEnd["setup_s"]
	r.named["retained_heap_mb"] = r.endToEnd["retained_heap_mb"]
	r.samples["setup"] = len(setup)
}

// finish records the failed-operation share, which the result line also
// carries as attempted and failed.
func (r *result) finish() {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.named["ops_failed_frac"] = metric{frac, "fraction"}
	r.samples["attempted"] = r.attempted
}

// latencies adds the median and the tail quantile q of s under name,
// noting when the run has fewer than ten samples beyond q.
func (r *result) latencies(name string, s series, q float64) {
	r.named[name+"_ms_p50"] = metric{s.quantile(0.5), "ms"}
	tail := fmt.Sprintf("%s_ms_p%d", name, int(math.Round(q*100)))
	r.named[tail] = metric{s.quantile(q), "ms"}
	r.samples[name] = len(s)
	if float64(len(s))*(1-q) < 10 {
		r.notes = append(r.notes, fmt.Sprintf("%s has %d samples, fewer than ten beyond p%d", tail, len(s), int(math.Round(q*100))))
	}
}

// series is a set of latency samples in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// window decides how long a closed loop keeps issuing operations: for at
// least its length, then on until the loop has the samples its reported
// quantiles need, but never past twice its length.
type window struct {
	start  time.Time
	length time.Duration
	need   int
}

func newWindow(length time.Duration, need int) window {
	return window{start: time.Now(), length: length, need: need}
}

func (w window) open(samples int) bool {
	el := time.Since(w.start)
	return el < w.length || (samples < w.need && el < 2*w.length)
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---- inputs ----

// Input streams: each kind of seeded input draws from its own generator.
const (
	streamValues = iota + 1
	streamRHS
	streamRelabel
)

// rngFor returns the generator of one input: the seed, the stream and the
// index select it, so any input can be regenerated on its own.
func rngFor(seed uint64, stream, index int) *rand.Rand {
	s := seed*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(index)
	return rand.New(rand.NewSource(int64(s)))
}

// perturbValues returns new values for a's pattern: every off-diagonal
// scaled by a factor in [0.5, 1.5), every diagonal set just above its row's
// absolute off-diagonal sum, so the matrix stays strictly diagonally
// dominant and therefore positive definite.
func perturbValues(a *sparse.Matrix, r *rand.Rand) []float64 {
	v := make([]float64, len(a.Val))
	rowSum := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowInd[p]; i != j {
				v[p] = a.Val[p] * (0.5 + r.Float64())
				rowSum[i] += math.Abs(v[p])
				rowSum[j] += math.Abs(v[p])
			}
		}
	}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowInd[p] == j {
				v[p] = rowSum[j] + 0.5 + r.Float64()
			}
		}
	}
	return v
}

// gaussian returns a full-precision seeded right-hand side.
func gaussian(n int, r *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return b
}

// withValues returns a matrix sharing a's pattern with the given values.
func withValues(a *sparse.Matrix, vals []float64) *sparse.Matrix {
	return &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: vals}
}

// pool is a fixed matrix pattern with seeded value sets and right-hand
// sides that a workload cycles through.
type pool struct {
	a     *sparse.Matrix
	mats  []*sparse.Matrix // one per value set
	norms []float64        // ‖mats[k]‖∞
	rhs   [][]float64
}

func newPool(a *sparse.Matrix, seed uint64, nvals, nrhs int) *pool {
	p := &pool{a: a}
	for k := 0; k < nvals; k++ {
		m := withValues(a, perturbValues(a, rngFor(seed, streamValues, k)))
		p.mats = append(p.mats, m)
		p.norms = append(p.norms, normInf(m))
	}
	for k := 0; k < nrhs; k++ {
		p.rhs = append(p.rhs, gaussian(a.N, rngFor(seed, streamRHS, k)))
	}
	return p
}

// cscBody is the service's JSON-CSC request body for m.
func cscBody(m *sparse.Matrix) []byte {
	b, err := json.Marshal(struct {
		N      int       `json:"n"`
		ColPtr []int     `json:"colptr"`
		RowInd []int     `json:"rowind"`
		Val    []float64 `json:"val"`
	}{m.N, m.ColPtr, m.RowInd, m.Val})
	if err != nil {
		panic(err) // ints and finite floats always encode
	}
	return b
}

// ---- verification ----

// normInf is ‖A‖∞ of a symmetric matrix stored as its lower triangle.
func normInf(a *sparse.Matrix) float64 {
	row := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i, v := a.RowInd[p], math.Abs(a.Val[p])
			row[i] += v
			if i != j {
				row[j] += v
			}
		}
	}
	m := 0.0
	for _, v := range row {
		m = math.Max(m, v)
	}
	return m
}

// relResidual is the normwise backward error of x as a solution of A·x = b.
func relResidual(a *sparse.Matrix, anorm float64, x, b []float64) float64 {
	if len(x) != a.N {
		return math.Inf(1)
	}
	ax := a.MulVec(x)
	res, xn, bn := 0.0, 0.0, 0.0
	for i := range ax {
		res = math.Max(res, math.Abs(ax[i]-b[i]))
		xn = math.Max(xn, math.Abs(x[i]))
		bn = math.Max(bn, math.Abs(b[i]))
	}
	if math.IsNaN(res) {
		return math.Inf(1)
	}
	return res / (anorm*xn + bn)
}

// checkSolution returns an error unless x solves A·x = b to residualTol.
func checkSolution(a *sparse.Matrix, anorm float64, x, b []float64) error {
	if r := relResidual(a, anorm, x, b); !(r <= residualTol) {
		return fmt.Errorf("relative residual %.3g above %g", r, residualTol)
	}
	return nil
}
