// Command spchol is the command-line driver for the block fan-out sparse
// Cholesky library: it generates (or names) a benchmark problem, analyzes
// it, and then factors it for real, simulates it on the Paragon machine
// model, or reports load-balance and communication statistics.
//
// Usage:
//
//	spchol -problem GRID150 -action simulate -procs 64 -row ID -col CY
//	spchol -grid 128 -action factor -procs 16 -domains
//	spchol -mesh 5000 -action balance -procs 100
//	spchol -cube 20 -action stats
//
// Problem selection (one of):
//
//	-problem NAME   a paper benchmark (Table 1/6 name; -scale ci|paper)
//	-grid K         5-point Laplacian on a K×K grid
//	-cube K         7-point Laplacian on a K×K×K cube
//	-mesh N         random 3-D FE-style mesh with N vertices
//	-dense N        dense N×N SPD matrix
//	-file PATH      a symmetric matrix in Matrix Market format
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/bundle"
	"blockfanout/internal/commvol"
	"blockfanout/internal/core"
	"blockfanout/internal/dot"
	"blockfanout/internal/experiments"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/mmio"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/stats"
	"blockfanout/internal/trace"
)

// writeTraceFile writes a Chrome trace-event JSON document to path via
// write, announcing where it landed so the user knows what to load.
func writeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace-event timeline written to %s (load in about:tracing or ui.perfetto.dev)\n", path)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spchol:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spchol", flag.ExitOnError)
	var (
		problem   = fs.String("problem", "", "paper benchmark name (e.g. GRID150, BCSSTK31)")
		scale     = fs.String("scale", "ci", "benchmark scale for -problem: ci or paper")
		gridK     = fs.Int("grid", 0, "generate a K×K grid problem")
		cubeK     = fs.Int("cube", 0, "generate a K×K×K cube problem")
		meshN     = fs.Int("mesh", 0, "generate a random 3-D mesh with N vertices")
		denseN    = fs.Int("dense", 0, "generate a dense N×N problem")
		file      = fs.String("file", "", "read a Matrix Market file")
		action    = fs.String("action", "stats", "stats | balance | simulate | trace | factor | dot")
		blockSize = fs.Int("block", core.DefaultBlockSize, "block size B (panel-width cap for -blocking irregular)")
		blocking  = fs.String("blocking", "uniform", "partitioning strategy: uniform | staged | cycled | irregular")
		amalg     = fs.Float64("amalg", 0, "relative-fill amalgamation threshold for -blocking irregular (0 = default)")
		ordering  = fs.String("order", "auto", "ordering: auto | natural | mmd | amd | ndgraph | hybrid | rcm")
		procs     = fs.Int("procs", 16, "number of processors")
		rowH      = fs.String("row", "ID", "row mapping heuristic: CY DW IN DN ID")
		colH      = fs.String("col", "CY", "column mapping heuristic: CY DW IN DN ID")
		domains   = fs.Bool("domains", true, "use the domain/root split")
		seed      = fs.Uint64("seed", 7, "generator seed for -mesh")
		save      = fs.String("save", "", "with -action factor: write the factor bundle here")
		execMode  = fs.String("exec", "steal", "parallel execution engine for -action factor: steal | spmd")
		exp       = fs.String("exp", "", "action alias or internal/experiments runner name; picks a default problem if none is selected")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON timeline (about:tracing / Perfetto) to this file")
	)
	fs.Parse(args)
	// mapping.BestGrid(0) is a 0×1 grid that mapping.New would divide by.
	if *procs < 1 {
		return fmt.Errorf("-procs must be at least 1, got %d", *procs)
	}

	if *exp != "" {
		switch *exp {
		case "stats", "balance", "simulate", "trace", "factor", "dot":
			*action = *exp
			// An experiment run should work standalone: default to the §5
			// representative problem when no problem flag was given.
			if *problem == "" && *gridK == 0 && *cubeK == 0 && *meshN == 0 && *denseN == 0 && *file == "" {
				*problem = "BCSSTK31"
			}
		default:
			r, ok := experiments.ByName(*exp)
			if !ok {
				return fmt.Errorf("unknown experiment %q (an action name or one of the cmd/tables runners)", *exp)
			}
			sc := gen.ScaleCI
			if *scale == "paper" {
				sc = gen.ScalePaper
			}
			cfg := experiments.Default(sc)
			fmt.Printf("== %s — %s\n", r.Name, r.Desc)
			if err := r.Run(os.Stdout, cfg); err != nil {
				return err
			}
			if *traceOut != "" {
				return writeTraceFile(*traceOut, func(w io.Writer) error {
					return experiments.TimelineTrace(w, cfg)
				})
			}
			return nil
		}
	}

	var (
		m       *sparse.Matrix
		method  order.Method
		gridDim int
		name    string
	)
	switch {
	case *problem != "":
		sc := gen.ScaleCI
		if *scale == "paper" {
			sc = gen.ScalePaper
		} else if *scale != "ci" {
			return fmt.Errorf("unknown scale %q", *scale)
		}
		suite := append(gen.Table1Suite(sc), gen.Table6Suite(sc)...)
		p, ok := gen.ByName(suite, *problem)
		if !ok {
			return fmt.Errorf("unknown problem %q", *problem)
		}
		name = p.Name
		m = p.Build()
		gridDim = p.GridDim
		switch p.Hint {
		case gen.HintNone:
			method = order.Natural
		case gen.HintNDGrid2D:
			method = order.NDGrid2D
		case gen.HintNDCube3D:
			method = order.NDCube3D
		default:
			method = order.MinDegree
		}
	case *gridK > 0:
		name = fmt.Sprintf("grid %d×%d", *gridK, *gridK)
		m, method, gridDim = gen.Grid2D(*gridK), order.NDGrid2D, *gridK
	case *cubeK > 0:
		name = fmt.Sprintf("cube %d³", *cubeK)
		m, method, gridDim = gen.Cube3D(*cubeK), order.NDCube3D, *cubeK
	case *meshN > 0:
		name = fmt.Sprintf("mesh n=%d", *meshN)
		m, method = gen.IrregularMesh(*meshN, 8, 3, *seed), order.MinDegree
	case *denseN > 0:
		name = fmt.Sprintf("dense %d", *denseN)
		m, method = gen.Dense(*denseN), order.Natural
	case *file != "":
		var err error
		if m, err = mmio.ReadFile(*file); err != nil {
			return err
		}
		name, method = *file, order.MinDegree
	default:
		return fmt.Errorf("no problem selected (use -problem, -grid, -cube, -mesh, -dense, or -file)")
	}

	// -order overrides the problem's default (auto) ordering.
	switch *ordering {
	case "auto":
	case "natural":
		method = order.Natural
	case "mmd":
		method = order.MinDegree
	case "amd":
		method = order.MinDegreeApprox
	case "ndgraph":
		method = order.NDGraph
	case "hybrid":
		method = order.NDHybrid
	case "rcm":
		method = order.CuthillMcKee
	default:
		return fmt.Errorf("unknown ordering %q", *ordering)
	}

	strat, err := blocks.ParseStrategy(*blocking)
	if err != nil {
		return err
	}

	rh, err := mapping.ParseHeuristic(*rowH)
	if err != nil {
		return err
	}
	ch, err := mapping.ParseHeuristic(*colH)
	if err != nil {
		return err
	}

	emode, err := fanout.ParseMode(*execMode)
	if err != nil {
		return err
	}

	t0 := time.Now()
	plan, err := core.NewPlan(m, core.Options{
		Ordering: method, GridDim: gridDim, BlockSize: *blockSize,
		Blocking: strat, AmalgThreshold: *amalg, Exec: emode,
	})
	if err != nil {
		return err
	}
	// The analysis banner goes to stderr so machine-readable actions
	// (dot) keep stdout clean.
	banner := os.Stdout
	if *action == "dot" {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "%s: n=%d nnz(A)=%d → nnz(L)=%d ops=%.1fM  [analyze %v]\n",
		name, m.N, m.NNZ(), plan.Exact.NZinL, float64(plan.Exact.Flops)/1e6,
		time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(banner, "ordering=%v B=%d blocking=%v supernodes=%d panels=%d\n",
		method, *blockSize, strat, len(plan.Sym.Snodes), plan.BS.N())

	if *action == "dot" {
		return dot.SupernodeForest(os.Stdout, plan.Sym)
	}
	if *action == "stats" {
		stats.Report(os.Stdout, plan)
		cfg := machine.Paragon()
		fmt.Printf("critical path: %.4fs (%.0f Mflops bound on this machine model)\n",
			plan.CriticalPath(cfg), float64(plan.Exact.Flops)/plan.CriticalPath(cfg)/1e6)
		return nil
	}

	g := mapping.BestGrid(*procs)
	mp := plan.Map(g, rh, ch)
	beta := 0.0
	if *domains {
		beta = 2.0
	}
	assign := plan.Assign(mp, beta)

	// simTrace writes the simulated timeline for the current assignment.
	simTrace := func() error {
		cfg := machine.Paragon()
		cfg.CollectTrace = true
		res := plan.Simulate(assign, cfg)
		label := fmt.Sprintf("%s %v/%v P=%d (simulated)", name, rh, ch, g.P())
		return writeTraceFile(*traceOut, func(w io.Writer) error {
			return obs.WriteMachineTrace(w, &res, label)
		})
	}

	switch *action {
	case "balance":
		bal := plan.Balances(mp)
		vol := commvol.Of(plan.BS, sched.Assignment{Map: mp})
		fmt.Printf("grid %d×%d, %v rows / %v cols:\n", g.Pr, g.Pc, rh, ch)
		fmt.Printf("  row balance     %.3f\n  column balance  %.3f\n  diagonal bal.   %.3f\n  overall balance %.3f\n",
			bal.Row, bal.Col, bal.Diag, bal.Overall)
		fmt.Printf("  comm volume     %d messages, %d bytes\n", vol.Messages, vol.Bytes)
		if *traceOut != "" {
			return simTrace()
		}

	case "simulate":
		cfg := machine.Paragon()
		res := plan.Simulate(assign, cfg)
		fmt.Printf("simulated %d-processor Paragon (domains=%v):\n", g.P(), *domains)
		fmt.Printf("  parallel time   %.4fs  (t_seq %.4fs)\n", res.Time, res.SeqTime)
		fmt.Printf("  efficiency      %.1f%%\n", res.Efficiency()*100)
		fmt.Printf("  performance     %.0f Mflops\n", res.Mflops(plan.Exact.Flops))
		fmt.Printf("  communication   %d messages, %d bytes, ≤%.1f%% of runtime\n",
			res.Messages, res.Bytes, res.CommFraction()*100)
		if *traceOut != "" {
			return simTrace()
		}

	case "trace":
		cfg := machine.Paragon()
		cfg.CollectTrace = true
		res := plan.Simulate(assign, cfg)
		if err := trace.Gantt(os.Stdout, &res, 100); err != nil {
			return err
		}
		if err := trace.Utilization(os.Stdout, &res); err != nil {
			return err
		}
		if *traceOut != "" {
			label := fmt.Sprintf("%s %v/%v P=%d (simulated)", name, rh, ch, g.P())
			return writeTraceFile(*traceOut, func(w io.Writer) error {
				return obs.WriteMachineTrace(w, &res, label)
			})
		}

	case "factor":
		start := time.Now()
		f, rep, err := plan.FactorValuesContext(context.Background(), assign, plan.A.Val, core.FactorRun{Trace: *traceOut != ""})
		if err != nil {
			return err
		}
		el := time.Since(start)
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1
		}
		x, err := f.Solve(b)
		if err != nil {
			return err
		}
		fmt.Printf("parallel factorization on %d goroutine-processors: %v (%.1f Mflop/s wall)\n",
			g.P(), el.Round(time.Microsecond), float64(plan.Exact.Flops)/el.Seconds()/1e6)
		fmt.Printf("solve residual ‖A·x−b‖∞ = %.3g\n", f.Residual(x, b))
		if *save != "" {
			if err := bundle.SaveFile(*save, bundle.FromFactor(f)); err != nil {
				return err
			}
			fmt.Printf("factor bundle saved to %s\n", *save)
		}
		if rep.Spans != nil {
			label := fmt.Sprintf("%s %v/%v P=%d (executed)", name, rh, ch, g.P())
			return writeTraceFile(*traceOut, func(w io.Writer) error {
				return rep.Spans.WriteTrace(w, label)
			})
		}

	default:
		return fmt.Errorf("unknown action %q", *action)
	}
	return nil
}
