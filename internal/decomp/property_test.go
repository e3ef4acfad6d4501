package decomp

import (
	"math"
	"testing"

	"billcap/internal/lp"
	"billcap/internal/milp"
)

// checkFleetFeasible verifies a recovered primal against the fleet
// instance's own semantics: every site runs in exactly one reachable
// segment within its load bounds and spend cap, and the fleet budget holds.
func checkFleetFeasible(t *testing.T, fi milp.FleetInstance, res Result) {
	t.Helper()
	if len(res.Sites) != len(fi.Sites) {
		t.Fatalf("%d allocations for %d sites", len(res.Sites), len(fi.Sites))
	}
	total := 0.0
	for i, a := range res.Sites {
		fs := fi.Sites[i]
		if !a.On {
			t.Fatalf("site %d off: the fleet family has no off state", i)
		}
		if a.Seg < 0 || a.Seg >= len(fs.Segs) {
			t.Fatalf("site %d: bad segment %d", i, a.Seg)
		}
		g := fs.Segs[a.Seg]
		tol := 1e-6 * (1 + math.Abs(g.HiMW))
		if a.Load < g.LoMW-tol || a.Load > g.HiMW+tol {
			t.Fatalf("site %d: load %v outside segment %d bounds [%v, %v]",
				i, a.Load, a.Seg, g.LoMW, g.HiMW)
		}
		cost := g.RateUSDPerMWh * a.Load
		if cost > fs.CapUSD+1e-6*(1+fs.CapUSD) {
			t.Fatalf("site %d: cost %v over cap %v", i, cost, fs.CapUSD)
		}
		if math.Abs(cost-a.CostUSD) > 1e-6*(1+cost) {
			t.Fatalf("site %d: reported cost %v, recomputed %v", i, a.CostUSD, cost)
		}
		total += cost
	}
	if total > fi.BudgetUSD+1e-6*(1+fi.BudgetUSD) {
		t.Fatalf("fleet cost %v over budget %v", total, fi.BudgetUSD)
	}
}

// TestFleetDualBoundAndPrimalVsExact is the equivalence oracle: on seeded
// NewPaperFleet and NewPaperHourFleet instances with N ≤ 20, the decomposition's
// dual bound must never cut off the exact MILP optimum, and its recovered
// primal must be feasible and within 1% of that optimum.
func TestFleetDualBoundAndPrimalVsExact(t *testing.T) {
	type tc struct {
		name string
		fi   milp.FleetInstance
	}
	var cases []tc
	for _, n := range []int{2, 5, 11, 20} {
		for _, seed := range []uint64{1, 7, 42} {
			cases = append(cases, tc{
				name: "fleet",
				fi:   milp.NewPaperFleet(n, seed+uint64(n)),
			})
		}
	}
	for _, n := range []int{3, 8, 13, 20} {
		cases = append(cases, tc{
			name: "paper-hour",
			fi:   milp.NewPaperHourFleet(n, milp.PaperHourBudget(n, 0)),
		})
	}
	for _, c := range cases {
		n := len(c.fi.Sites)
		exact := c.fi.Build().Solve()
		if exact.Status != milp.Optimal {
			t.Fatalf("%s n=%d: exact MILP ended %v", c.name, n, exact.Status)
		}
		res, err := Solve(FromFleet(c.fi), Options{})
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.name, n, err)
		}
		if res.Status == Infeasible {
			t.Fatalf("%s n=%d: decomposition found no feasible primal", c.name, n)
		}
		checkFleetFeasible(t, c.fi, res)
		scale := 1 + math.Abs(exact.Objective)
		if res.DualBound < exact.Objective-1e-6*scale {
			t.Errorf("%s n=%d: dual bound %v cuts off the exact optimum %v",
				c.name, n, res.DualBound, exact.Objective)
		}
		if res.Objective > exact.Objective+1e-6*scale {
			t.Errorf("%s n=%d: primal %v exceeds the exact optimum %v",
				c.name, n, res.Objective, exact.Objective)
		}
		if res.Objective < exact.Objective*0.99-1e-9 {
			t.Errorf("%s n=%d: primal %v more than 1%% below the exact optimum %v (gap %.3f%%)",
				c.name, n, res.Objective, exact.Objective,
				100*(exact.Objective-res.Objective)/exact.Objective)
		}
		t.Logf("%s n=%d: exact=%.2f primal=%.2f dual=%.2f gap=%.4f%% iters=%d",
			c.name, n, exact.Objective, res.Objective, res.DualBound, 100*res.Gap, res.Iterations)
	}
}

// TestMinCostVsExhaustive checks the serve-all sense against an exhaustive
// oracle: enumerate every segment combination of a tiny fleet and solve the
// continuous split exactly per combination with the LP core. The
// decomposition's dual bound must stay at or below the true minimum cost and
// its primal within 1% above it.
func TestMinCostVsExhaustive(t *testing.T) {
	sites := []Site{
		{Name: "a", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 60, Cost0: 12, Cost1: 3, Rate: 3},
			{Seg: 1, LoadLo: 60, LoadHi: 140, Cost0: 12, Cost1: 5, Rate: 5},
		}},
		{Name: "b", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 90, Cost0: 30, Cost1: 2, Rate: 2},
			{Seg: 1, LoadLo: 90, LoadHi: 150, Cost0: 30, Cost1: 7, Rate: 7},
		}},
		{Name: "c", CanOff: false, Segments: []Segment{
			{Seg: 0, LoadLo: 10, LoadHi: 80, Cost0: 0, Cost1: 4, Rate: 4},
			{Seg: 1, LoadLo: 80, LoadHi: 120, Cost0: 0, Cost1: 6, Rate: 6},
		}},
	}
	for _, target := range []float64{10, 75, 130, 220, 300, 380} {
		inst := Instance{Sites: sites, Sense: MinCostServeAll, TargetLoad: target, BudgetUSD: math.Inf(1)}
		opt := exhaustiveMinCost(t, inst)
		res, err := Solve(inst, Options{})
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if math.IsInf(opt, 1) {
			if res.Status != Infeasible {
				t.Errorf("target %v: want infeasible, got %v with cost %v", target, res.Status, res.CostUSD)
			}
			continue
		}
		if res.Status == Infeasible {
			t.Fatalf("target %v: infeasible but oracle found cost %v", target, opt)
		}
		if math.Abs(res.Load-target) > 1e-6*(1+target) {
			t.Errorf("target %v: served %v", target, res.Load)
		}
		if res.DualBound > opt+1e-6*(1+opt) {
			t.Errorf("target %v: dual bound %v exceeds true minimum %v", target, res.DualBound, opt)
		}
		if res.Objective > opt*1.01+1e-9 {
			t.Errorf("target %v: primal cost %v more than 1%% above minimum %v", target, res.Objective, opt)
		}
	}
}

// exhaustiveMinCost brute-forces the serve-all minimum: every combination of
// segment choices (including off where allowed), each with its continuous
// split solved as an LP. Returns +Inf when nothing is feasible.
func exhaustiveMinCost(t *testing.T, inst Instance) float64 {
	t.Helper()
	n := len(inst.Sites)
	choices := make([]int, n) // -1 = off, else segment index
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			pb := lp.NewProblem()
			var terms []lp.Term
			fixed := 0.0
			for j, k := range choices {
				if k < 0 {
					continue
				}
				g := inst.Sites[j].Segments[k]
				v := pb.AddVar("x", g.Cost1)
				pb.SetVarBounds(v, g.LoadLo, g.LoadHi)
				terms = append(terms, lp.Term{Var: v, Coef: 1})
				fixed += g.Cost0
			}
			if len(terms) == 0 {
				if inst.TargetLoad <= 1e-9 && best > 0 {
					best = 0
				}
				return
			}
			pb.AddConstraint(terms, lp.EQ, inst.TargetLoad)
			if sol := pb.Solve(); sol.Status == lp.Optimal && sol.Objective+fixed < best {
				best = sol.Objective + fixed
			}
			return
		}
		s := inst.Sites[i]
		if s.CanOff {
			choices[i] = -1
			rec(i + 1)
		}
		for k := range s.Segments {
			choices[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	return best
}
