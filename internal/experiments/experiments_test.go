package experiments

import (
	"strings"
	"testing"

	"blockfanout/internal/gen"
)

func TestAllRunnersProduceOutput(t *testing.T) {
	cfg := Default(gen.ScaleCI)
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			var sb strings.Builder
			if err := r.Run(&sb, cfg); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			out := sb.String()
			if len(out) < 40 {
				t.Fatalf("%s produced almost no output: %q", r.Name, out)
			}
			// Every experiment reports on at least one benchmark matrix
			// or a processor count.
			if !strings.Contains(out, "DENSE") && !strings.Contains(out, "GRID") &&
				!strings.Contains(out, "CUBE") && !strings.Contains(out, "BCSSTK") &&
				!strings.Contains(out, "P=") && !strings.Contains(out, "P ") &&
				!strings.Contains(out, "Cyclic") {
				t.Fatalf("%s output lacks benchmark rows:\n%s", r.Name, out)
			}
		})
	}
}

func TestByNameLookup(t *testing.T) {
	if _, ok := ByName("table4"); !ok {
		t.Fatal("table4 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus runner found")
	}
	if len(All()) != 26 {
		t.Fatalf("runner count %d, want 26", len(All()))
	}
}

func TestDefaultConfigs(t *testing.T) {
	ci := Default(gen.ScaleCI)
	paper := Default(gen.ScalePaper)
	if paper.B != 48 {
		t.Fatalf("paper block size %d, want the paper's 48", paper.B)
	}
	if ci.B >= paper.B {
		t.Fatal("CI block size should shrink with the matrices")
	}
	for _, c := range []Config{ci, paper} {
		if c.P1 != 64 || c.P2 != 100 || c.PL1 != 144 || c.PL2 != 196 {
			t.Fatalf("processor counts %+v differ from the paper's", c)
		}
	}
}

func TestPlanCacheReuses(t *testing.T) {
	p, _ := gen.ByName(gen.Table1Suite(gen.ScaleCI), "GRID150")
	a, err := PlanFor(p, gen.ScaleCI, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(p, gen.ScaleCI, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("plan cache missed")
	}
	c, err := PlanFor(p, gen.ScaleCI, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different block size shared a plan")
	}
}

// TestHeadlineShapes asserts the paper's headline claims hold at CI scale:
// the heuristics improve mean overall balance a lot and mean simulated
// performance by a smaller but clearly positive margin.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Default(gen.ScaleCI)
	suite := gen.Table1Suite(cfg.Scale)
	g := grid(cfg.P1)

	var balGain, perfGain float64
	for _, p := range suite {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			t.Fatal(err)
		}
		cy := plan.Map(g, 0, 0) // CY/CY
		he := plan.Map(g, 4, 0) // ID/CY
		balGain += pct(plan.Balances(he).Overall, plan.Balances(cy).Overall)
		mfCY := mflops(plan, plan.Simulate(plan.Assign(cy, cfg.DomainBeta), cfg.Machine))
		mfHE := mflops(plan, plan.Simulate(plan.Assign(he, cfg.DomainBeta), cfg.Machine))
		perfGain += pct(mfHE, mfCY)
	}
	balGain /= float64(len(suite))
	perfGain /= float64(len(suite))
	if balGain < 20 {
		t.Fatalf("mean balance gain %.0f%% below the paper's regime", balGain)
	}
	if perfGain < 8 {
		t.Fatalf("mean performance gain %.0f%% too small", perfGain)
	}
	if perfGain > balGain {
		t.Fatalf("performance gain %.0f%% exceeds balance gain %.0f%% — §4.1 shape violated", perfGain, balGain)
	}
}
