package fanout_test

import (
	"fmt"
	"testing"

	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
)

// TestMeasureRecorderDropFree pins the guarantee span-derived measurements
// rely on: a NewMeasureRecorder records every BFAC/BDIV/BMOD of a whole
// factorization with Dropped() == 0. It runs the serving configuration
// (minimum degree, ID rows × CY columns, domains on) under both engines and
// re-arms the recorder with Reset between repeated runs, the way a traced
// benchmark replay drives it. P=1 puts every operation on one lane, the
// case that needs a lane's full capacity.
func TestMeasureRecorderDropFree(t *testing.T) {
	m := gen.IrregularMesh(420, 8, 3, 7)
	plan, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree, BlockSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []fanout.Mode{fanout.ModeWorkStealing, fanout.ModeSPMD} {
		for _, procs := range []int{1, 2, 8, 12} {
			t.Run(fmt.Sprintf("%v-P%d", mode, procs), func(t *testing.T) {
				a := plan.Assign(plan.Map(mapping.BestGrid(procs), mapping.ID, mapping.CY), 2)
				pr := sched.Build(plan.BS, a)
				nf, err := numeric.New(plan.BS, plan.PA)
				if err != nil {
					t.Fatal(err)
				}
				ex := fanout.NewExecutorMode(nf, pr, mode)
				rec := ex.NewMeasureRecorder()
				rec.Enable()
				var mods int
				for _, nm := range pr.NMods {
					mods += int(nm)
				}
				for run := 0; run < 3; run++ {
					rec.Reset()
					if run > 0 {
						if err := nf.Reload(plan.PA.Val); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := ex.Run(); err != nil {
						t.Fatal(err)
					}
					if d := rec.Dropped(); d != 0 {
						t.Fatalf("run %d: measure recorder dropped %d spans", run, d)
					}
					var bfacdiv, bmod int
					for _, s := range rec.Spans() {
						switch s.Op {
						case obs.OpBFAC, obs.OpBDIV:
							bfacdiv++
						case obs.OpBMOD:
							bmod++
						}
					}
					if bfacdiv != pr.NBlocks || bmod != mods {
						t.Fatalf("run %d: recorded %d BFAC/BDIV and %d BMOD spans, schedule has %d blocks and %d modifications",
							run, bfacdiv, bmod, pr.NBlocks, mods)
					}
				}
			})
		}
	}
}
