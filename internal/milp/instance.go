package milp

import (
	"fmt"
	"math"

	"billcap/internal/lp"
)

// KnapsackInstance is a deterministic hard benchmark instance: a
// strongly-correlated multi-knapsack whose optimality proof needs many
// branch-and-bound nodes. The paper's hourly MILP carries ≈5·N binaries for
// N sites, so NewHardKnapsack(5*N, seed) is the standard "paper scale N"
// workload for solver benchmarks; x = 0 is always feasible, so deadline
// dives can always manufacture an incumbent.
type KnapsackInstance struct {
	*Problem
	Weights  [][]float64 // one row of item weights per knapsack constraint
	Capacity []float64   // right-hand side of each knapsack row
}

// NewHardKnapsack builds a maximization instance over n binaries with three
// correlated knapsack rows. Profits track weights closely (the classic hard
// regime, weak LP bounds), and the construction is a pure function of n and
// seed, so benchmarks and regression tests see identical instances across
// runs and machines.
func NewHardKnapsack(n int, seed uint64) KnapsackInstance {
	p := NewProblem()
	p.SetMaximize(true)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%100) + 1 // 1..100
	}
	weights := make([][]float64, 3)
	for r := range weights {
		weights[r] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		w := next()
		p.AddBinVar("x", w+10) // profit ≈ weight → weak LP bounds
		weights[0][j] = w
		weights[1][j] = next()
		weights[2][j] = w + weights[1][j]/2
	}
	rhs := make([]float64, 3)
	for r, ws := range weights {
		terms := make([]lp.Term, n)
		total := 0.0
		for j, w := range ws {
			terms[j] = lp.Term{Var: j, Coef: w}
			total += w
		}
		rhs[r] = math.Floor(total / 2)
		p.AddConstraint(terms, lp.LE, rhs[r])
	}
	return KnapsackInstance{Problem: p, Weights: weights, Capacity: rhs}
}

// FleetSeg is one price segment of a fleet-instance site: while the site's
// purchased power sits in [LoMW, HiMW] it pays RateUSDPerMWh. An empty range
// (HiMW < LoMW) encodes a segment the demand shift made unreachable; Build
// still emits its rows (the binary is provably 0).
type FleetSeg struct {
	LoMW, HiMW    float64
	RateUSDPerMWh float64
}

// FleetSite is one site of a fleet instance: its price segments and its
// per-site hourly spend cap.
type FleetSite struct {
	Segs   []FleetSeg
	CapUSD float64
}

// FleetInstance is the data behind the hourly step-2 MILP shape: per site a
// union of price segments (exactly one active — no off state), a per-site
// spend cap, and one fleet-wide budget row coupling all sites. It is the
// shared spec of the exact MILP (Build) and the dual-decomposition path
// (internal/decomp.FromFleet), which is what makes the two solvers
// comparable on identical instances.
type FleetInstance struct {
	Sites     []FleetSite
	BudgetUSD float64
	// Epsilon is the cost tie-break weight in the throughput objective
	// max Σ p − ε·cost.
	Epsilon float64
}

// Build assembles the MILP: per site a total-power variable p, per segment a
// power variable p_k with selection binary z_k and the p_k ∈ [lo·z, hi·z]
// rows, the p = Σ p_k link, Σ z_k = 1, the site spend cap, and finally the
// fleet budget row. Variable and constraint order is part of the contract, so
// instances are reproducible across runs and machines.
func (fi FleetInstance) Build() *Problem {
	m := NewProblem()
	m.SetMaximize(true)
	var budgetTerms []lp.Term
	for i, s := range fi.Sites {
		p := m.AddVar(fmt.Sprintf("s%d.p", i), 0)
		link := []lp.Term{{Var: p, Coef: 1}}
		var sel, siteTerms []lp.Term
		for k, g := range s.Segs {
			// max Σ p − ε·cost, the throughput objective with a cost tie-break.
			pk := m.AddVar(fmt.Sprintf("s%d.p%d", i, k), 1-fi.Epsilon*g.RateUSDPerMWh)
			zk := m.AddBinVar(fmt.Sprintf("s%d.z%d", i, k), 0)
			m.AddConstraint([]lp.Term{{Var: pk, Coef: 1}, {Var: zk, Coef: -g.HiMW}}, lp.LE, 0)
			m.AddConstraint([]lp.Term{{Var: pk, Coef: 1}, {Var: zk, Coef: -g.LoMW}}, lp.GE, 0)
			link = append(link, lp.Term{Var: pk, Coef: -1})
			sel = append(sel, lp.Term{Var: zk, Coef: 1})
			siteTerms = append(siteTerms, lp.Term{Var: pk, Coef: g.RateUSDPerMWh})
		}
		m.AddConstraint(link, lp.EQ, 0)
		m.AddConstraint(sel, lp.EQ, 1) // every site runs in exactly one segment
		m.AddConstraint(siteTerms, lp.LE, s.CapUSD)
		budgetTerms = append(budgetTerms, siteTerms...)
	}
	m.AddConstraint(budgetTerms, lp.LE, fi.BudgetUSD)
	return m
}

// NewPaperHourFleet is the hourly step-2 shape of the capper for N sites at
// the given fleet budget: 5 segments per site, demands with a linear
// per-site term so equal-bound plateaus don't blow up the search tree, a
// uniform $27 500 site cap. The per-site cap admits a full segment 3 but not
// the top segment's minimum spend, so the LP relaxation buys fractional top
// segments with the cap's slack. A pure function of (sites, budget).
func NewPaperHourFleet(sites int, budget float64) FleetInstance {
	const segs = 5
	fi := FleetInstance{BudgetUSD: budget, Epsilon: 1e-4, Sites: make([]FleetSite, sites)}
	for i := 0; i < sites; i++ {
		d := 40 + 10*float64(i%3) + 1.5*float64(i)
		s := FleetSite{CapUSD: 27500, Segs: make([]FleetSeg, segs)}
		for k := 0; k < segs; k++ {
			s.Segs[k] = FleetSeg{
				LoMW:          math.Max(1, float64(100*k)-d),
				HiMW:          float64(100*(k+1)) - d,
				RateUSDPerMWh: 30 + 15*float64(k),
			}
		}
		fi.Sites[i] = s
	}
	return fi
}

// NewPaperFleet builds a seeded heterogeneous fleet instance for the
// decomposition benchmarks (N in the hundreds): demands, per-site rate
// jitter and spend caps all vary with the seed, so greedy orderings and dual
// prices are nontrivial, and the shared budget (PaperFleetBudget) is binding.
// Like NewHardKnapsack, the construction is a pure function of (sites, seed).
func NewPaperFleet(sites int, seed uint64) FleetInstance {
	const segs = 5
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000) / 1000 // [0, 1)
	}
	fi := FleetInstance{BudgetUSD: PaperFleetBudget(sites), Epsilon: 1e-4, Sites: make([]FleetSite, sites)}
	for i := 0; i < sites; i++ {
		d := 20 + 160*next()       // all five segments stay reachable
		jitter := 0.8 + 0.4*next() // per-site price level ±20%
		cap := 27500 * (0.8 + 0.4*next())
		s := FleetSite{CapUSD: cap, Segs: make([]FleetSeg, segs)}
		for k := 0; k < segs; k++ {
			s.Segs[k] = FleetSeg{
				LoMW:          math.Max(1, float64(100*k)-d),
				HiMW:          float64(100*(k+1)) - d,
				RateUSDPerMWh: (30 + 15*float64(k)) * jitter,
			}
		}
		fi.Sites[i] = s
	}
	return fi
}

// PaperFleetBudget is the fleet budget NewPaperFleet instances carry: below
// the average per-site spend cap, so the budget row is binding and the
// budget multiplier is meaningful.
func PaperFleetBudget(sites int) float64 { return 21000 * float64(sites) }

// PaperHourBudget is the standard fleet budget for NewPaperHourFleet:
// binding at hour 0 and loosening every hour (the paper §III carry-forward
// pool grows through cheap hours).
func PaperHourBudget(sites, hour int) float64 {
	return float64(sites) * (25000 + 150*float64(hour))
}

// CheckSolution reports whether x is a valid answer for the instance:
// integral on every binary and within every knapsack capacity.
func (k KnapsackInstance) CheckSolution(x []float64, tol float64) bool {
	for v := range x {
		if k.IsInteger(v) && x[v] != math.Round(x[v]) {
			return false
		}
	}
	for r, ws := range k.Weights {
		got := 0.0
		for j, w := range ws {
			got += w * x[j]
		}
		if got > k.Capacity[r]+tol {
			return false
		}
	}
	return true
}
