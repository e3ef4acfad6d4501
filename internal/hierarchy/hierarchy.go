// Package hierarchy implements the two-level bill-capping architecture the
// paper leaves as future work (§IX): the centralized capper "may not have
// good scalability ... Extending the electricity bill capping architecture
// to work in a hierarchical way is our future work."
//
// The fleet is partitioned into groups (e.g. per continent). Every hour a
// lightweight coordinator
//
//  1. samples each group's cost-vs-load curve by solving the group's Step-1
//     MILP at a few load levels,
//  2. splits the hour's workload across groups by greedy marginal cost on
//     the sampled curves, and
//  3. splits the hourly budget across groups in proportion to their
//     estimated cost shares;
//
// then each group's local capper runs the full two-step algorithm on its
// own (small) MILPs. Decision quality approaches the centralized optimum
// while per-hour MILP size stays bounded by the largest group.
package hierarchy

import (
	"fmt"
	"math"
	"sort"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// Group is one independently capped subset of the fleet.
type Group struct {
	Name string
	// SiteIdx are the indices of this group's sites in the global site
	// order (and thus in HourInput.DemandMW).
	SiteIdx []int

	sys      *core.System
	capacity float64
}

// System exposes the group's optimizer.
func (g *Group) System() *core.System { return g.sys }

// The coordinator's fixed resolutions.
const (
	// samplePoints is the number of load levels used to sample each group's
	// cost curve.
	samplePoints = 5
	// chunks is the granularity of the greedy workload split.
	chunks = 24
)

// Coordinator is the top-level splitter plus the per-group cappers.
type Coordinator struct {
	Groups []*Group

	numSites int
}

// New partitions the sites into groups of the given sizes (in order) and
// builds one capper per group. Sizes must sum to len(dcs).
func New(dcs []*dcmodel.Site, policies []pricing.Policy, groupSizes []int) (*Coordinator, error) {
	if len(dcs) == 0 {
		return nil, fmt.Errorf("hierarchy: no sites")
	}
	if len(dcs) != len(policies) {
		return nil, fmt.Errorf("hierarchy: %d sites but %d policies", len(dcs), len(policies))
	}
	if len(groupSizes) == 0 {
		return nil, fmt.Errorf("hierarchy: no groups for %d sites", len(dcs))
	}
	total := 0
	for gi, s := range groupSizes {
		if s <= 0 {
			return nil, fmt.Errorf("hierarchy: group %d has size %d, want positive", gi, s)
		}
		total += s
	}
	if total != len(dcs) {
		return nil, fmt.Errorf("hierarchy: %d group sizes sum to %d, have %d sites",
			len(groupSizes), total, len(dcs))
	}
	c := &Coordinator{numSites: len(dcs)}
	at := 0
	for gi, size := range groupSizes {
		idx := make([]int, size)
		for k := range idx {
			idx[k] = at + k
		}
		sys, err := core.NewSystem(dcs[at:at+size], policies[at:at+size], core.Options{})
		if err != nil {
			return nil, err
		}
		c.Groups = append(c.Groups, &Group{
			Name:     fmt.Sprintf("group%d", gi),
			SiteIdx:  idx,
			sys:      sys,
			capacity: sys.MaxThroughput(),
		})
		at += size
	}
	return c, nil
}

// Capacity is the fleet capacity across all groups.
func (c *Coordinator) Capacity() float64 {
	t := 0.0
	for _, g := range c.Groups {
		t += g.capacity
	}
	return t
}

// Decision is the hierarchical outcome of one hour.
type Decision struct {
	// Lambdas is the per-site allocation in global site order.
	Lambdas []float64
	// GroupLambda and GroupBudget record the coordinator's split.
	GroupLambda, GroupBudget []float64
	// PredictedCostUSD sums the groups' predictions.
	PredictedCostUSD float64
	// Served splits as in the flat capper.
	Served, ServedPremium, ServedOrdinary float64
	// Solver aggregates the groups' MILP effort.
	Solver core.SolverStats
}

// costCurve is a sampled piecewise-linear cost-vs-load curve.
type costCurve struct {
	loads, costs []float64
}

// at interpolates the curve (linear between samples, +Inf past capacity).
func (cc costCurve) at(x float64) float64 {
	n := len(cc.loads)
	if x <= cc.loads[0] {
		return cc.costs[0]
	}
	if x > cc.loads[n-1]+1e-9 {
		return math.Inf(1)
	}
	i := sort.SearchFloat64s(cc.loads, x)
	if i >= n {
		return cc.costs[n-1]
	}
	lo, hi := cc.loads[i-1], cc.loads[i]
	if hi == lo {
		return cc.costs[i]
	}
	f := (x - lo) / (hi - lo)
	return cc.costs[i-1] + f*(cc.costs[i]-cc.costs[i-1])
}

// groupDemand extracts a group's demand slice from the global vector.
func (g *Group) groupDemand(all []float64) []float64 {
	out := make([]float64, len(g.SiteIdx))
	for k, i := range g.SiteIdx {
		out[k] = all[i]
	}
	return out
}

// DecideHour runs the full two-level decision.
func (c *Coordinator) DecideHour(in core.HourInput) (Decision, error) {
	if len(in.DemandMW) != c.numSites {
		return Decision{}, fmt.Errorf("hierarchy: %d demand entries for %d sites", len(in.DemandMW), c.numSites)
	}
	var stats core.SolverStats

	// 1. Sample every group's cost curve.
	curves := make([]costCurve, len(c.Groups))
	for gi, g := range c.Groups {
		gin := in
		gin.DemandMW = g.groupDemand(in.DemandMW)
		gin.PremiumLambda = 0
		gin.BudgetUSD = math.Inf(1)
		cc := costCurve{}
		for s := 0; s < samplePoints; s++ {
			load := g.capacity * float64(s) / float64(samplePoints-1)
			d, err := g.sys.MinimizeCost(gin, load, &stats)
			if err != nil {
				return Decision{}, fmt.Errorf("hierarchy: sampling %s at %v: %w", g.Name, load, err)
			}
			cc.loads = append(cc.loads, load)
			cc.costs = append(cc.costs, d.PredictedCostUSD)
		}
		curves[gi] = cc
	}

	// 2. Greedy marginal-cost split of the workload.
	groupLambda := make([]float64, len(c.Groups))
	remaining := math.Min(in.TotalLambda, c.Capacity())
	chunk := remaining / float64(chunks)
	for k := 0; k < chunks && chunk > 0; k++ {
		best, bestCost := -1, math.Inf(1)
		for gi, g := range c.Groups {
			if groupLambda[gi]+chunk > g.capacity*(1+1e-12) {
				continue
			}
			marginal := curves[gi].at(groupLambda[gi]+chunk) - curves[gi].at(groupLambda[gi])
			if marginal < bestCost {
				bestCost = marginal
				best = gi
			}
		}
		if best < 0 {
			break
		}
		groupLambda[best] += chunk
	}

	// 3. Split the budget by estimated cost share and run the local cappers.
	estTotal := 0.0
	est := make([]float64, len(c.Groups))
	for gi := range c.Groups {
		est[gi] = curves[gi].at(groupLambda[gi])
		estTotal += est[gi]
	}
	dec := Decision{
		Lambdas:     make([]float64, c.numSites),
		GroupLambda: groupLambda,
		GroupBudget: make([]float64, len(c.Groups)),
	}
	assigned := 0.0
	for _, l := range groupLambda {
		assigned += l
	}
	for gi, g := range c.Groups {
		gin := in
		gin.DemandMW = g.groupDemand(in.DemandMW)
		gin.TotalLambda = groupLambda[gi]
		// Premium traffic follows the workload split proportionally.
		gin.PremiumLambda = 0
		if assigned > 0 {
			gin.PremiumLambda = math.Min(groupLambda[gi],
				in.PremiumLambda*groupLambda[gi]/assigned)
		}
		if math.IsInf(in.BudgetUSD, 1) || estTotal <= 0 {
			dec.GroupBudget[gi] = in.BudgetUSD
		} else {
			dec.GroupBudget[gi] = in.BudgetUSD * est[gi] / estTotal
		}
		gin.BudgetUSD = dec.GroupBudget[gi]
		gd, err := g.sys.DecideHour(gin)
		if err != nil {
			return Decision{}, fmt.Errorf("hierarchy: group %s: %w", g.Name, err)
		}
		for k, i := range g.SiteIdx {
			dec.Lambdas[i] = gd.Sites[k].Lambda
		}
		dec.PredictedCostUSD += gd.PredictedCostUSD
		dec.Served += gd.Served
		dec.ServedPremium += gd.ServedPremium
		dec.ServedOrdinary += gd.ServedOrdinary
		stats.Accumulate(gd.Solver)
	}
	dec.Solver = stats
	return dec, nil
}
