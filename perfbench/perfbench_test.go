package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// shortConfig runs a workload for a few operations on reduced inputs.
func shortConfig(trace bool) config {
	return config{seed: 7, window: 300 * time.Millisecond, trace: trace, small: true, sabotage: -1}
}

func skipUnderTwoCores(t *testing.T) {
	if runtime.NumCPU() < procs || runtime.GOMAXPROCS(0) < procs {
		t.Skipf("needs %d cores", procs)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultLine is the last line of the benchmark's output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return rl
}

// TestShortRunsEmitEveryMetric runs every workload of BENCHMARK.json
// briefly, untraced and traced, and checks that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	skipUnderTwoCores(t)
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			c := shortConfig(trace)
			res, err := w.run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			report(&out, w, c, res)
			rl := lastLine(t, out.String())
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, rl.Correct, rl.Attempted, rl.Failed, res.failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rl.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rl.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
			if !trace {
				for _, m := range want {
					if rl.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, rl.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestSpoiledOperationCounted sends one operation per workload to a wrong
// factor id or tampers with its solution, and checks that it is counted
// as failed, stays in the denominator, and makes the run incorrect.
func TestSpoiledOperationCounted(t *testing.T) {
	skipUnderTwoCores(t)
	for name, w := range workloads {
		c := shortConfig(false)
		c.sabotage = warmOps + 1
		res, err := w.run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 1 || res.correct() {
			t.Fatalf("%s: failed=%d correct=%v, want one failure and an incorrect run", name, res.failed, res.correct())
		}
		if want := 1 / float64(res.attempted); res.named["ops_failed_frac"].Value != want {
			t.Errorf("%s: ops_failed_frac=%v, want 1/%d", name, res.named["ops_failed_frac"].Value, res.attempted)
		}
	}
}

func digest(ms []*sparse.Matrix, vecs [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, m := range ms {
		put(m.PatternHash())
		for _, v := range m.Val {
			put(math.Float64bits(v))
		}
	}
	for _, v := range vecs {
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

func poolDigest(a *sparse.Matrix, seed uint64) uint64 {
	p := newPool(a, seed, 4, 4)
	return digest(p.mats, p.rhs)
}

func coldDigest(t *testing.T, base *sparse.Matrix, seed uint64, i int) uint64 {
	op, err := coldInput(base, seed, i)
	if err != nil {
		t.Fatal(err)
	}
	return digest([]*sparse.Matrix{op.m}, [][]float64{op.b})
}

// TestSameSeedSameInputs checks that a seed regenerates identical inputs
// (pattern hashes, values and right-hand sides) and that another seed,
// or another cold-pattern operation, does not.
func TestSameSeedSameInputs(t *testing.T) {
	grid := gen.Grid2D(12)
	if poolDigest(grid, 3) != poolDigest(grid, 3) {
		t.Error("pool inputs differ for the same seed")
	}
	if poolDigest(grid, 3) == poolDigest(grid, 4) {
		t.Error("pool inputs equal for different seeds")
	}
	mesh := gen.IrregularMesh(200, 9, 3, 31)
	if coldDigest(t, mesh, 3, 5) != coldDigest(t, mesh, 3, 5) {
		t.Error("cold-pattern inputs differ for the same seed")
	}
	a, _ := coldInput(mesh, 3, 5)
	b, _ := coldInput(mesh, 3, 6)
	c, _ := coldInput(mesh, 4, 5)
	if a.m.PatternHash() == b.m.PatternHash() || a.m.PatternHash() == c.m.PatternHash() {
		t.Error("cold-pattern operations repeat a pattern")
	}
}

// TestReplayRefusesDrift checks that the replay fails, rather than
// reporting layer times for some other analysis, when no ordering
// reproduces what the service reported.
func TestReplayRefusesDrift(t *testing.T) {
	a := gen.Grid2D(10)
	r, err := analyze(a, servedOrderings[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := discoverServed(a, r.exact.NZinL, r.exact.Flops); err != nil {
		t.Fatalf("matching counts: %v", err)
	}
	if _, _, err := discoverServed(a, r.exact.NZinL+1, r.exact.Flops); err == nil {
		t.Fatal("drifted counts were accepted")
	}
}
