// Command perfbench is the repository's benchmark. It drives the block
// fan-out Cholesky library and its solve service from outside, over three
// seeded workloads, verifies every operation's result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) named in
// BENCHMARK.json. README.md describes the workloads and the metrics.
//
//	go run . --workload refactor-irregular --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every line before it is a
// human-readable report: provenance, sample counts, and each metric by
// name with its unit. The exit code is 0 only when every operation and
// every run-level check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"blockfanout/internal/kernels"
)

// procs is the factorization width P of every workload, and the most
// client goroutines any workload uses; the benchmark pins GOMAXPROCS to it
// so the service's default Procs (GOMAXPROCS) is P = 2 on every host.
const procs = 2

// heapLimit is the benchmark process's soft memory limit. cold-pattern
// keeps the service's default 64 live factors of about 15 MB each; the
// limit keeps the garbage collector's headroom from doubling that on a
// shared host. It is a runtime setting of this process, not a setting of
// the program under test.
const heapLimit = 1536 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced window and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := guard(w); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(heapLimit)
	}
	c := config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sabotage: -1,
	}
	res, err := w.run(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, w, c, res)
	if !res.correct() {
		for _, msg := range res.failures {
			fmt.Fprintln(stderr, "perfbench: verification failed:", msg)
		}
		return 1
	}
	return 0
}

// guard refuses to run a workload on fewer cores than its factorization
// width or its client count: oversubscribed numbers measure the
// scheduler, not the program.
func guard(w workload) error {
	need := procs
	if w.clients > need {
		need = w.clients
	}
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g < need || n < need {
		return fmt.Errorf("workload %s needs %d cores: GOMAXPROCS=%d, nproc=%d", w.name, need, g, n)
	}
	return nil
}

// report prints the human-readable lines and then the result object as
// the last line of stdout.
func report(out io.Writer, w workload, c config, res *result) {
	prov := map[string]any{
		"workload":   w.name,
		"clients":    w.clients,
		"p":          procs,
		"seed":       c.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"fma":        kernels.HasFMA(),
		"commit":     commit(),
		"samples":    res.samples,
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)
	for _, note := range res.notes {
		fmt.Fprintf(out, "note %s\n", note)
	}
	printMetrics(out, "metric", res.named)
	if c.trace {
		printMetrics(out, "layer", res.layer)
	}
	metrics := res.endToEnd
	if c.trace {
		metrics = res.perLayer()
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	fmt.Fprintf(out, "%s\n", line)
}

func printMetrics(out io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s = %.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
