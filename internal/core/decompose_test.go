package core

import (
	"math"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// syntheticSystem builds an n-site fleet from the synthetic generators used
// by the scalability experiments.
func syntheticSystem(t *testing.T, n int, opts Options) *System {
	t.Helper()
	s, err := NewSystem(dcmodel.SyntheticSites(n), pricing.Synthetic(n), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func syntheticDemand(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 150 + 15*float64(i%4)
	}
	return d
}

// TestDecomposeMatchesExact drives the full two-step decision through both
// solve paths on the same 8-site fleet and requires the decomposition to land
// within 1% of the exact MILP on every branch of the algorithm.
func TestDecomposeMatchesExact(t *testing.T) {
	const n = 8
	exact := syntheticSystem(t, n, Options{})
	dec := syntheticSystem(t, n, Options{Decompose: true, decomposeAt: 1})
	demand := syntheticDemand(n)
	cap := exact.MaxThroughput()

	// Find an uncapped cost to derive binding budgets from.
	base, err := exact.DecideHour(HourInput{
		TotalLambda: 0.7 * cap, PremiumLambda: 0.3 * cap,
		DemandMW: demand, BudgetUSD: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	down := make([]bool, n)
	down[2] = true
	cases := []struct {
		name string
		in   HourInput
	}{
		{"uncapped", HourInput{TotalLambda: 0.7 * cap, PremiumLambda: 0.3 * cap,
			DemandMW: demand, BudgetUSD: math.Inf(1)}},
		{"tight budget", HourInput{TotalLambda: 0.7 * cap, PremiumLambda: 0.2 * cap,
			DemandMW: demand, BudgetUSD: 0.6 * base.PredictedCostUSD}},
		{"premium only", HourInput{TotalLambda: 0.7 * cap, PremiumLambda: 0.65 * cap,
			DemandMW: demand, BudgetUSD: 0.3 * base.PredictedCostUSD}},
		{"site down", HourInput{TotalLambda: 0.5 * cap, PremiumLambda: 0.1 * cap,
			DemandMW: demand, BudgetUSD: math.Inf(1), Down: down}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ed, err := exact.DecideHour(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := dec.DecideHour(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if ed.Step != dd.Step {
				t.Errorf("step %v (decomp) != %v (exact)", dd.Step, ed.Step)
			}
			if dd.Served < ed.Served*0.99-1e-9 {
				t.Errorf("served %v, exact %v", dd.Served, ed.Served)
			}
			if dd.Step == StepCostMin && dd.PredictedCostUSD > ed.PredictedCostUSD*1.01+1e-9 {
				t.Errorf("cost %v, exact %v", dd.PredictedCostUSD, ed.PredictedCostUSD)
			}
			if dd.Step != StepPremiumOnly && !math.IsInf(tc.in.BudgetUSD, 1) &&
				dd.PredictedCostUSD > tc.in.BudgetUSD*(1+1e-6) {
				t.Errorf("cost %v over budget %v", dd.PredictedCostUSD, tc.in.BudgetUSD)
			}
			if dd.Solver.DecompSolves == 0 || dd.Solver.DecompIterations == 0 {
				t.Errorf("decomp path reported no decomposition effort: %+v", dd.Solver)
			}
			if dd.Solver.Nodes != 0 {
				t.Errorf("decomp path still explored %d MILP nodes", dd.Solver.Nodes)
			}
			if ed.Solver.DecompSolves != 0 {
				t.Errorf("exact path reported %d decomposition solves", ed.Solver.DecompSolves)
			}
			for i := range dd.Sites {
				if tc.in.SiteDown(i) && dd.Sites[i].On {
					t.Errorf("down site %d left on", i)
				}
			}
		})
	}
}

// TestDecomposeBelowThresholdStaysExact keeps the exact solver as the oracle
// at or below the fleet-size threshold even when decomposition is enabled.
func TestDecomposeBelowThresholdStaysExact(t *testing.T) {
	const n = 8
	s := syntheticSystem(t, n, Options{Decompose: true}) // default threshold 20
	d, err := s.DecideHour(HourInput{
		TotalLambda: 0.5 * s.MaxThroughput(), PremiumLambda: 0,
		DemandMW: syntheticDemand(n), BudgetUSD: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Solver.DecompSolves != 0 {
		t.Errorf("below-threshold decision used %d decomposition solves", d.Solver.DecompSolves)
	}
	if d.Solver.Solves == 0 {
		t.Error("below-threshold decision reported no MILP solves")
	}
}
