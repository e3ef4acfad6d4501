package hetero

import (
	"errors"
	"fmt"
	"math"

	"billcap/internal/lp"
	"billcap/internal/milp"
	"billcap/internal/piecewise"
	"billcap/internal/pricing"
)

// ErrInfeasible reports that the load exceeds what the heterogeneous fleet
// can carry within SLAs and power caps.
var ErrInfeasible = errors.New("hetero: no feasible allocation")

// Network is a set of heterogeneous data centers in their power markets.
type Network struct {
	Sites    []*Site
	Policies []pricing.Policy

	plans  [][]ClassPlan
	maxLam []float64
}

// NewNetwork validates and assembles the network.
func NewNetwork(sites []*Site, policies []pricing.Policy) (*Network, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("hetero: no sites")
	}
	if len(sites) != len(policies) {
		return nil, fmt.Errorf("hetero: %d sites but %d policies", len(sites), len(policies))
	}
	n := &Network{Sites: sites, Policies: policies}
	for _, s := range sites {
		plans, err := s.Plans()
		if err != nil {
			return nil, err
		}
		maxLam, err := s.MaxLambda()
		if err != nil {
			return nil, err
		}
		n.plans = append(n.plans, plans)
		n.maxLam = append(n.maxLam, maxLam)
	}
	return n, nil
}

// MaxThroughput is the fleet's SLA- and cap-feasible capacity.
func (n *Network) MaxThroughput() float64 {
	t := 0.0
	for _, m := range n.maxLam {
		t += m
	}
	return t
}

// Allocation is the optimizer's plan for one hour.
type Allocation struct {
	// LambdaBySite is the per-site workload.
	LambdaBySite []float64
	// LambdaByClass[i][c] follows the site's efficiency-ordered Plans().
	LambdaByClass [][]float64
	// PowerMW is the predicted per-site draw.
	PowerMW []float64
	// CostUSD is the predicted total electricity cost.
	CostUSD float64
	// Solver reports branch-and-bound effort.
	SolverNodes, SolverPivots int
}

// heteroModel holds the shared MILP skeleton of both optimization steps.
type heteroModel struct {
	m             *milp.Problem
	scale         float64
	siteClassVars [][]struct{ x, y int }
	encs          []piecewise.Encoded
	workTerms     []lp.Term
}

// buildModel assembles the per-class variables, price encodings and
// structural rows shared by cost minimization and throughput maximization.
func (n *Network) buildModel(lambda float64, demandMW []float64) (*heteroModel, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("hetero: negative load %v", lambda)
	}
	if len(demandMW) != len(n.Sites) {
		return nil, fmt.Errorf("hetero: %d demand entries for %d sites", len(demandMW), len(n.Sites))
	}
	hm := &heteroModel{
		m:             milp.NewProblem(),
		scale:         math.Max(1, lambda/1e3),
		siteClassVars: make([][]struct{ x, y int }, len(n.Sites)),
		encs:          make([]piecewise.Encoded, len(n.Sites)),
	}
	m := hm.m
	for i, s := range n.Sites {
		enc, err := piecewise.Encode(m, n.Policies[i].Fn, demandMW[i], s.PowerCapMW, s.RoundingSlackMW(), s.Name)
		if err != nil {
			return nil, err
		}
		hm.encs[i] = enc
		on := m.AddBinVar(s.Name+".on", 0)
		// The price segment selector matches the site's on/off state.
		m.AddConstraint(append(enc.SelectorTerms(), lp.Term{Var: on, Coef: -1}), lp.EQ, 0)

		powerLink := []lp.Term{{Var: enc.Power, Coef: 1}}
		var anyClassOn []lp.Term
		for _, pl := range n.plans[i] {
			x := m.AddVar(fmt.Sprintf("%s.%s.x", s.Name, pl.Class.Name), 0)
			y := m.AddBinVar(fmt.Sprintf("%s.%s.y", s.Name, pl.Class.Name), 0)
			// Class capacity ties load to activation.
			m.AddConstraint([]lp.Term{
				{Var: x, Coef: 1}, {Var: y, Coef: -pl.MaxLambda / hm.scale},
			}, lp.LE, 0)
			// An active class implies the site is on.
			m.AddConstraint([]lp.Term{{Var: y, Coef: 1}, {Var: on, Coef: -1}}, lp.LE, 0)
			powerLink = append(powerLink,
				lp.Term{Var: x, Coef: -pl.A * hm.scale},
				lp.Term{Var: y, Coef: -pl.B})
			anyClassOn = append(anyClassOn, lp.Term{Var: y, Coef: 1})
			hm.workTerms = append(hm.workTerms, lp.Term{Var: x, Coef: 1})
			hm.siteClassVars[i] = append(hm.siteClassVars[i], struct{ x, y int }{x: x, y: y})
		}
		if len(hm.siteClassVars[i]) == 0 {
			return nil, fmt.Errorf("hetero %s: no usable server class", s.Name)
		}
		// p_i = Σ_c (a_c x_c + b_c y_c).
		m.AddConstraint(powerLink, lp.EQ, 0)
		// A site that is "on" must have at least one active class.
		m.AddConstraint(append(anyClassOn, lp.Term{Var: on, Coef: -1}), lp.GE, 0)
	}
	return hm, nil
}

// costTerms collects Σ rate·segPower across all sites.
func (hm *heteroModel) costTerms() []lp.Term {
	var out []lp.Term
	for i := range hm.encs {
		out = append(out, hm.encs[i].CostTerms()...)
	}
	return out
}

// extract reads an optimal solution into an Allocation.
func (n *Network) extract(hm *heteroModel, sol milp.Solution) Allocation {
	out := Allocation{
		LambdaBySite:  make([]float64, len(n.Sites)),
		LambdaByClass: make([][]float64, len(n.Sites)),
		PowerMW:       make([]float64, len(n.Sites)),
		SolverNodes:   sol.Nodes,
		SolverPivots:  sol.Pivots,
	}
	for i := range n.Sites {
		out.LambdaByClass[i] = make([]float64, len(hm.siteClassVars[i]))
		for c, cv := range hm.siteClassVars[i] {
			lam := sol.X[cv.x] * hm.scale
			if lam < 0 || sol.X[cv.y] < 0.5 {
				lam = 0
			}
			out.LambdaByClass[i][c] = lam
			out.LambdaBySite[i] += lam
		}
		out.PowerMW[i] = sol.X[hm.encs[i].Power]
		for j, pv := range hm.encs[i].SegPower {
			out.CostUSD += hm.encs[i].SegRate[j] * sol.X[pv]
		}
	}
	return out
}

// MinimizeCost routes lambda requests/hour across the heterogeneous fleet
// at minimum predicted cost under the true locational step prices — the
// paper's Step 1 generalized to per-class dispatch.
func (n *Network) MinimizeCost(lambda float64, demandMW []float64) (Allocation, error) {
	hm, err := n.buildModel(lambda, demandMW)
	if err != nil {
		return Allocation{}, err
	}
	hm.m.AddConstraint(hm.workTerms, lp.EQ, lambda/hm.scale)
	for _, t := range hm.costTerms() {
		hm.m.SetObjectiveCoef(t.Var, hm.m.ObjectiveCoef(t.Var)+t.Coef)
	}
	sol := hm.m.Solve()
	switch sol.Status {
	case milp.Optimal:
	case milp.Infeasible:
		return Allocation{}, fmt.Errorf("%w: %v req/h", ErrInfeasible, lambda)
	default:
		return Allocation{}, fmt.Errorf("hetero: solve ended %v", sol.Status)
	}
	return n.extract(hm, sol), nil
}

// MaximizeThroughput admits as much of the arriving load as the hourly
// budget allows — the paper's Step 2 generalized to per-class dispatch.
// budgetUSD of +Inf disables the budget row.
func (n *Network) MaximizeThroughput(lambda, budgetUSD float64, demandMW []float64) (Allocation, error) {
	if budgetUSD < 0 || math.IsNaN(budgetUSD) {
		return Allocation{}, fmt.Errorf("hetero: bad budget %v", budgetUSD)
	}
	hm, err := n.buildModel(lambda, demandMW)
	if err != nil {
		return Allocation{}, err
	}
	hm.m.AddConstraint(hm.workTerms, lp.LE, lambda/hm.scale)
	if !math.IsInf(budgetUSD, 1) {
		hm.m.AddConstraint(hm.costTerms(), lp.LE, budgetUSD)
	}
	hm.m.SetMaximize(true)
	for _, t := range hm.workTerms {
		hm.m.SetObjectiveCoef(t.Var, 1)
	}
	const eps = 1e-4 // cost tie-break, as in the homogeneous capper
	for _, t := range hm.costTerms() {
		hm.m.SetObjectiveCoef(t.Var, hm.m.ObjectiveCoef(t.Var)-eps*t.Coef)
	}
	sol := hm.m.Solve()
	if sol.Status != milp.Optimal {
		return Allocation{}, fmt.Errorf("hetero: throughput maximization ended %v", sol.Status)
	}
	return n.extract(hm, sol), nil
}

// DecideHour runs the full two-step bill capping algorithm on the
// heterogeneous fleet: cost-minimize everything; if that busts the hourly
// budget, maximize admitted throughput within it; if even premium traffic
// does not fit, serve premium at minimum cost and accept the overrun.
func (n *Network) DecideHour(lambda, premiumLambda, budgetUSD float64, demandMW []float64) (Allocation, error) {
	if premiumLambda < 0 || premiumLambda > lambda+1e-9 {
		return Allocation{}, fmt.Errorf("hetero: premium %v outside [0, %v]", premiumLambda, lambda)
	}
	d1, err := n.MinimizeCost(lambda, demandMW)
	if err == nil && d1.CostUSD <= budgetUSD*(1+1e-6)+1e-6 {
		return d1, nil
	}
	if err != nil && !errors.Is(err, ErrInfeasible) {
		return Allocation{}, err
	}
	d2, err := n.MaximizeThroughput(lambda, budgetUSD, demandMW)
	if err != nil {
		return Allocation{}, err
	}
	served := 0.0
	for _, l := range d2.LambdaBySite {
		served += l
	}
	if served+1e-6*(1+lambda) >= premiumLambda {
		return d2, nil
	}
	// Premium QoS is mandatory: over budget, premium only.
	d3, err := n.MinimizeCost(premiumLambda, demandMW)
	if err == nil {
		return d3, nil
	}
	if !errors.Is(err, ErrInfeasible) {
		return Allocation{}, err
	}
	return n.MaximizeThroughput(premiumLambda, math.Inf(1), demandMW)
}

// Realization is the discrete, truthfully billed outcome of an allocation.
type Realization struct {
	PowerMW       []float64
	PriceUSDPerMW []float64
	CostUSD       float64
	PenaltyUSD    float64
	CapViolations int
	Servers       int
}

// BillUSD is energy charges plus cap penalties.
func (r Realization) BillUSD() float64 { return r.CostUSD + r.PenaltyUSD }

// Realize evaluates the per-site loads with the discrete local optimizer
// and bills them at the true step prices.
func (n *Network) Realize(lambdaBySite, demandMW []float64) (Realization, error) {
	if len(lambdaBySite) != len(n.Sites) || len(demandMW) != len(n.Sites) {
		return Realization{}, fmt.Errorf("hetero: realize arity mismatch")
	}
	out := Realization{
		PowerMW:       make([]float64, len(n.Sites)),
		PriceUSDPerMW: make([]float64, len(n.Sites)),
	}
	for i, s := range n.Sites {
		d, err := s.Evaluate(lambdaBySite[i])
		if err != nil {
			return Realization{}, err
		}
		price := n.Policies[i].Price(demandMW[i] + d.PowerMW)
		out.PowerMW[i] = d.PowerMW
		out.PriceUSDPerMW[i] = price
		out.CostUSD += price * d.PowerMW
		out.Servers += d.Servers
		if d.PowerMW > s.PowerCapMW+1e-9 {
			out.CapViolations++
			out.PenaltyUSD += pricing.CapPenaltyUSDPerMWh * (d.PowerMW - s.PowerCapMW)
		}
	}
	return out, nil
}
