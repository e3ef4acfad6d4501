// Package milp solves small mixed integer linear programs by LP-based branch
// and bound on top of the internal simplex solver.
//
// It is the replacement for the lp_solve library the paper uses: the paper's
// electricity-cost problems have one binary per price level per data center
// (≈ 5·N binaries for N sites), which is comfortably within reach of a plain
// sequential best-first branch-and-bound over warm-started LP relaxations.
// Unless a deadline or cancellation cuts it short, the search is
// deterministic: the same problem and options always explore the same nodes
// and return the same incumbent.
package milp

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"billcap/internal/lp"
)

// Problem is a linear program plus integrality markers.
type Problem struct {
	*lp.Problem
	integer []bool
}

// NewProblem returns an empty minimization MILP.
func NewProblem() *Problem {
	return &Problem{Problem: lp.NewProblem()}
}

// AddVar adds a continuous nonnegative variable.
func (p *Problem) AddVar(name string, objCoef float64) int {
	v := p.Problem.AddVar(name, objCoef)
	p.integer = append(p.integer, false)
	return v
}

// AddIntVar adds a nonnegative integer variable.
func (p *Problem) AddIntVar(name string, objCoef float64) int {
	v := p.Problem.AddVar(name, objCoef)
	p.integer = append(p.integer, true)
	return v
}

// AddBinVar adds a {0,1} variable: integer with native bounds [0, 1]. The
// bound lives on the variable, not in a constraint row — the sparse LP core
// handles it in the ratio test for free, and the dense oracle lowers it to an
// explicit row itself, so neither core sees a basis row per binary.
func (p *Problem) AddBinVar(name string, objCoef float64) int {
	v := p.AddIntVar(name, objCoef)
	p.SetVarBounds(v, 0, 1)
	return v
}

// SetInteger marks or unmarks integrality of an existing variable.
func (p *Problem) SetInteger(v int, isInt bool) { p.integer[v] = isInt }

// IsInteger reports whether variable v is integral.
func (p *Problem) IsInteger(v int) bool { return p.integer[v] }

// NumIntegerVars counts integral variables.
func (p *Problem) NumIntegerVars() int {
	c := 0
	for _, b := range p.integer {
		if b {
			c++
		}
	}
	return c
}

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // proven optimal integer solution
	Infeasible               // no integer-feasible point exists
	Unbounded                // the LP relaxation is unbounded
	Limit                    // stopped at the node limit; Solution may hold an incumbent
	TimeLimit                // deadline expired or canceled; Solution may hold an incumbent
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "node-limit"
	case TimeLimit:
		return "time-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a branch-and-bound run.
type Solution struct {
	Status    Status
	X         []float64 // incumbent (integral entries exactly rounded)
	Objective float64   // objective of X in the problem's own direction
	Nodes     int       // branch-and-bound nodes explored
	Pivots    int       // total simplex pivots across all LP relaxations
	// LPRefactorizations and LPBasisUpdates aggregate the sparse LP core's
	// basis-factorization work across every relaxation of the search: LU
	// rebuilds and product-form eta updates respectively. Both stay zero when
	// the dense oracle (Options.LPCore == lp.CoreDense) ran the relaxations.
	LPRefactorizations int
	LPBasisUpdates     int
	Incumbents         int           // times the incumbent improved during the search
	Elapsed            time.Duration // wall time of the solve
	Gap                float64       // |bound − incumbent| remaining at stop (0 when Optimal)
}

// The search's fixed tolerances.
const (
	// intTol is the integrality tolerance. It must sit above the LP solver's
	// accumulated pivot noise (relative to row magnitudes up to ~1e3 in this
	// repository), or branching on a phantom fraction like 1.000002 adds the
	// already-present bound x ≤ 1 and makes no progress.
	intTol = 1e-4
	// gapTol is the absolute optimality gap at which the search stops.
	gapTol = 1e-7
)

// Options tune the search. The zero value uses defaults suitable for the
// paper's problem sizes.
type Options struct {
	MaxNodes int // 0 → 200000
	// Deadline is the wall-clock budget for the whole solve; 0 → unlimited.
	// The check is cooperative, between LP relaxations, so the effective
	// floor is one simplex solve. On expiry the search stops and returns the
	// best incumbent with Status == TimeLimit and the remaining Gap; if no
	// incumbent exists yet, a bounded rounding dive (at most one LP re-solve
	// per integer variable, plus backtracks) manufactures a feasible one
	// before returning, so callers get an answer instead of a hang.
	Deadline time.Duration
	// Cancel, when non-nil, cooperatively aborts the search once it is
	// closed (e.g. an http request context's Done channel). Cancellation is
	// reported as TimeLimit, with the same incumbent guarantees as Deadline.
	Cancel <-chan struct{}
	// MaxLPPivots caps simplex pivots of the root relaxation solve; 0 → the
	// LP solver's default. A root that exhausts the cap stops the search with
	// Status Limit, no incumbent and Gap +Inf.
	MaxLPPivots int
	// LPCore selects the LP core for the root relaxation — and, through the
	// warm start it records, for every node re-solve of the search. The zero
	// value is the sparse revised simplex; lp.CoreDense pins the dense
	// tableau oracle for tests and the benchmilp gate.
	LPCore lp.Core
}

// withDefaults fills the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	return o
}

// expired reports whether the solve must stop: the deadline passed (zero
// deadline never expires) or the cancel channel is closed.
func (o Options) expired(deadline time.Time) bool {
	if o.Cancel != nil {
		select {
		case <-o.Cancel:
			return true
		default:
		}
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}

type node struct {
	bound  float64     // LP relaxation objective (minimization sense)
	bounds []branch    // branching bounds accumulated from the root
	sol    lp.Solution // the already-solved relaxation at this node
	pseudo bool        // integral within intTol but with no feasible rounding:
	// already failed an incumbent repair, must be branched at zero tolerance
}

type branch struct {
	v     int
	rel   lp.Rel // LE (x ≤ val) or GE (x ≥ val)
	value float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs best-first branch and bound.
func (p *Problem) Solve() Solution { return p.SolveWithOptions(Options{}) }

// SolveWithOptions is Solve with explicit options. The search solves the
// root LP relaxation once and then runs best-first branch and bound.
func (p *Problem) SolveWithOptions(opt Options) Solution {
	start := time.Now()
	opt = opt.withDefaults()
	sol := p.solveFromRoot(opt, start)
	sol.Elapsed = time.Since(start)
	return sol
}

// effort aggregates the LP work spent across relaxation solves: simplex
// pivots plus the sparse core's basis-factorization counters (both zero when
// the dense oracle ran). It is the accumulator behind Solution.Pivots,
// Solution.LPRefactorizations and Solution.LPBasisUpdates.
type effort struct {
	pivots, refactors, updates int
}

// absorb adds one LP solve's counters.
func (e *effort) absorb(s lp.Solution) {
	e.pivots += s.Pivots
	e.refactors += s.Refactorizations
	e.updates += s.BasisUpdates
}

// merge adds another accumulator (a dive's or a repair's sub-total).
func (e *effort) merge(o effort) {
	e.pivots += o.pivots
	e.refactors += o.refactors
	e.updates += o.updates
}

// stamp writes the accumulated counters onto a Solution and returns it.
func (e effort) stamp(s Solution) Solution {
	s.Pivots = e.pivots
	s.LPRefactorizations = e.refactors
	s.LPBasisUpdates = e.updates
	return s
}

func (p *Problem) solveFromRoot(opt Options, start time.Time) Solution {
	sign := 1.0
	if p.Maximizing() {
		sign = -1 // internal bounds are kept in minimization sense
	}

	// Solve the root once and keep its optimal basis; every node's relaxation
	// (root + branch bound rows) is then re-solved by the warm-started dual
	// simplex — the same strategy lp_solve's branch-and-bound uses.
	warm, root := p.Problem.SolveForWarmStart(lp.Options{MaxPivots: opt.MaxLPPivots, Core: opt.LPCore})
	var eff effort
	eff.absorb(root)
	switch root.Status {
	case lp.Unbounded:
		return eff.stamp(Solution{Status: Unbounded, Nodes: 1})
	case lp.Infeasible:
		return eff.stamp(Solution{Status: Infeasible, Nodes: 1})
	case lp.IterLimit:
		// Through finish, so Gap reads +Inf: there is no incumbent, and the
		// zero-value Gap of a bare Solution would tell callers "proven
		// optimal" when nothing was proven at all.
		return p.finish(Limit, nil, math.Inf(1), sign, 1, eff, nil)
	}
	return p.branchAndBound(opt, start, warm, root, eff)
}

// branchAndBound runs the best-first search from the solved root
// relaxation; eff already holds the root solve's LP work.
func (p *Problem) branchAndBound(opt Options, start time.Time, warm *lp.WarmStart, root lp.Solution, eff effort) Solution {
	var deadline time.Time
	if opt.Deadline > 0 {
		deadline = start.Add(opt.Deadline)
	}

	sign := 1.0
	if p.Maximizing() {
		sign = -1
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1) // minimization sense
		incumbents   int           // incumbent improvements (exposed for observability)
		nodes        = 1           // the root
		h            nodeHeap
	)
	relax := func(bs []branch) lp.Solution {
		return warm.ReSolve(branchRows(bs))
	}

	process := func(bs []branch, sol lp.Solution) {
		bound := sign * sol.Objective
		if bound >= incumbentObj-gapTol {
			return // dominated
		}
		pseudo := false
		fv := p.mostFractional(sol.X, intTol)
		if fv < 0 {
			// Integral within tolerance: repair into an exactly feasible
			// incumbent (rounding can strand continuous load behind big-M
			// rows; see repairIncumbent).
			x, obj, re, ok := p.repairIncumbent(bs, sol, relax)
			eff.merge(re)
			if ok {
				if b := sign * obj; b < incumbentObj {
					incumbentObj = b
					incumbent = x
					incumbents++
				}
				return
			}
			// No feasible completion at the rounded integers: branch on the
			// worst residual fraction instead of accepting a bogus point.
			if fv = p.mostFractional(sol.X, 0); fv < 0 {
				return // exactly integral yet infeasible: numerically dead
			}
			pseudo = true
		}
		heap.Push(&h, &node{bound: bound, bounds: bs, sol: sol, pseudo: pseudo})
	}
	process(nil, root)

	for h.Len() > 0 {
		if nodes >= opt.MaxNodes {
			s := p.finish(Limit, incumbent, incumbentObj, sign, nodes, eff, h)
			s.Incumbents = incumbents
			return s
		}
		if opt.expired(deadline) {
			if incumbent == nil {
				// The deadline fired before best-first search reached any
				// integer point: dive from the best open node so the caller
				// still gets a feasible answer, not an empty solution. The
				// dive runs on borrowed time, so it gets its own bounded
				// grace deadline rather than a free pass to overshoot by
				// 2·NumIntegerVars LP re-solves.
				if x, obj, dn, de := p.dive(h[0], relax, opt, sign, time.Now().Add(diveGrace(opt.Deadline))); x != nil {
					incumbent, incumbentObj = x, obj
					incumbents++
					nodes += dn
					eff.merge(de)
				}
			}
			s := p.finish(TimeLimit, incumbent, incumbentObj, sign, nodes, eff, h)
			s.Incumbents = incumbents
			return s
		}
		it := heap.Pop(&h).(*node)
		if it.bound >= incumbentObj-gapTol {
			continue // pruned by a newer incumbent
		}
		// The node's relaxation was solved when it was pushed; branch on it
		// directly.
		sol := it.sol
		fv := p.mostFractional(sol.X, intTol)
		if fv < 0 {
			// Tolerance drift on a re-popped node: try the repair unless this
			// node already failed it (pseudo), then branch at zero tolerance.
			if !it.pseudo {
				x, obj, re, ok := p.repairIncumbent(it.bounds, sol, relax)
				eff.merge(re)
				if ok {
					if b := sign * obj; b < incumbentObj {
						incumbentObj = b
						incumbent = x
						incumbents++
					}
					continue
				}
			}
			if fv = p.mostFractional(sol.X, 0); fv < 0 {
				continue // exactly integral yet infeasible: numerically dead
			}
		}
		v := sol.X[fv]
		downB := branch{fv, lp.LE, math.Floor(v)}
		upB := branch{fv, lp.GE, math.Ceil(v)}
		for _, nb := range []branch{downB, upB} {
			if hasBranch(it.bounds, nb) {
				// The exact same bound row is already active, so re-adding it
				// cannot change the relaxation: numerical noise produced a
				// phantom fraction. Skip the child to guarantee progress.
				continue
			}
			child := append(append([]branch(nil), it.bounds...), nb)
			s := relax(child)
			eff.absorb(s)
			nodes++
			if s.Status == lp.Optimal {
				process(child, s)
			}
		}
	}
	if incumbent == nil {
		return eff.stamp(Solution{Status: Infeasible, Nodes: nodes})
	}
	return eff.stamp(Solution{
		Status:     Optimal,
		X:          incumbent,
		Objective:  sign * incumbentObj,
		Nodes:      nodes,
		Incumbents: incumbents,
	})
}

func (p *Problem) finish(st Status, inc []float64, incObj, sign float64, nodes int, eff effort, h nodeHeap) Solution {
	s := eff.stamp(Solution{Status: st, Nodes: nodes})
	if inc != nil {
		s.X = inc
		s.Objective = sign * incObj
		best := incObj
		for _, n := range h {
			if n.bound < best {
				best = n.bound
			}
		}
		s.Gap = incObj - best
	} else {
		s.Gap = math.Inf(1)
	}
	return s
}

// diveGrace bounds the wall-clock budget of the incumbent-manufacturing dive
// that runs after the main deadline has already expired. It tracks the
// caller's own deadline (a caller tolerating 50ms of search tolerates a
// comparable dive) but is clamped so a near-zero deadline still buys enough
// time to manufacture an incumbent, and a multi-minute one cannot let the
// dive overshoot unboundedly.
func diveGrace(d time.Duration) time.Duration {
	const (
		minGrace = 10 * time.Millisecond
		maxGrace = 250 * time.Millisecond
	)
	if d < minGrace {
		return minGrace
	}
	if d > maxGrace {
		return maxGrace
	}
	return d
}

// repairIncumbent turns a relaxation point whose integer variables are all
// integral within intTol into an exactly feasible incumbent. Rounding alone is
// not enough: through a big-M row like x ≤ M·y, a binary at 1e-5 — integral
// under any practical tolerance — still licenses M·1e-5 worth of continuous x,
// which becomes a constraint violation the moment y snaps to 0. When the
// rounded point violates a row, one more warm re-solve with every integer
// pinned to its rounded value lets the LP re-place the continuous variables
// against the honest integer assignment. ok == false means no feasible
// completion exists at those integer values: the point is only
// pseudo-integral and must be branched further (on its worst sub-tolerance
// fraction), never accepted. The returned objective is in the problem's own
// optimization sense; eff counts the repair solve's LP work.
func (p *Problem) repairIncumbent(bs []branch, sol lp.Solution, relax func([]branch) lp.Solution) (x []float64, obj float64, eff effort, ok bool) {
	x = roundIntegral(sol.X, p.integer)
	if len(p.Problem.CheckFeasible(x, 1e-6)) == 0 {
		return x, p.Problem.Eval(x), eff, true
	}
	pins := append([]branch(nil), bs...)
	for v, isInt := range p.integer {
		if !isInt || v >= len(x) {
			continue
		}
		pins = append(pins, branch{v, lp.LE, x[v]}, branch{v, lp.GE, x[v]})
	}
	rs := relax(pins)
	eff.absorb(rs)
	if rs.Status != lp.Optimal {
		return nil, 0, eff, false
	}
	rx := roundIntegral(rs.X, p.integer)
	if len(p.Problem.CheckFeasible(rx, 1e-6)) != 0 {
		return nil, 0, eff, false
	}
	return rx, p.Problem.Eval(rx), eff, true
}

// branchRows converts accumulated branching bounds into warm-start rows.
func branchRows(bs []branch) []lp.ExtraRow {
	rows := make([]lp.ExtraRow, len(bs))
	for i, b := range bs {
		rows[i] = lp.ExtraRow{
			Terms: []lp.Term{{Var: b.v, Coef: 1}},
			Rel:   b.rel,
			RHS:   b.value,
		}
	}
	return rows
}

// dive greedily rounds the most fractional variable of the node's relaxation
// toward its nearest integer, re-solving the warm-started LP after each added
// bound, until an integer-feasible point emerges or the attempt is exhausted.
// At each level the opposite rounding direction is tried when the preferred
// one is infeasible, so the LP work is bounded by ~2·NumIntegerVars re-solves
// AND by the hard deadline: the dive runs after the solve's own deadline has
// expired, so each level re-checks the clock and on expiry returns the best
// it can salvage from the partial descent (the current point snapped to
// integers, if that happens to be feasible) instead of overshooting by the
// whole dive. A nil x means nothing feasible was found in the budget.
func (p *Problem) dive(it *node, relax func([]branch) lp.Solution, opt Options, sign float64, hard time.Time) (x []float64, obj float64, nodes int, eff effort) {
	bounds := it.bounds
	sol := it.sol
	for depth := 0; depth <= 2*p.NumIntegerVars()+1; depth++ {
		fv := p.mostFractional(sol.X, intTol)
		if fv < 0 {
			x, obj, re, ok := p.repairIncumbent(bounds, sol, relax)
			eff.merge(re)
			if ok {
				return x, sign * obj, nodes, eff
			}
			// Pseudo-integral (see repairIncumbent): keep diving on the worst
			// residual fraction rather than returning an infeasible point.
			if fv = p.mostFractional(sol.X, 0); fv < 0 {
				return nil, 0, nodes, eff
			}
		}
		if opt.expired(hard) {
			if x, obj, ok := p.snapRound(sol); ok {
				return x, sign * obj, nodes, eff
			}
			return nil, 0, nodes, eff
		}
		v := sol.X[fv]
		near := branch{fv, lp.LE, math.Floor(v)}
		far := branch{fv, lp.GE, math.Ceil(v)}
		if v-math.Floor(v) > 0.5 {
			near, far = far, near
		}
		advanced := false
		for _, nb := range []branch{near, far} {
			if hasBranch(bounds, nb) {
				continue
			}
			child := append(append([]branch(nil), bounds...), nb)
			s := relax(child)
			nodes++
			eff.absorb(s)
			if s.Status == lp.Optimal {
				bounds, sol = child, s
				advanced = true
				break
			}
		}
		if !advanced {
			break // both rounding directions infeasible; salvage below
		}
	}
	if x, obj, ok := p.snapRound(sol); ok {
		return x, sign * obj, nodes, eff
	}
	return nil, 0, nodes, eff
}

// snapRound is the dive's last gasp on expiry: snap the current fractional
// point to integers and keep the result only if it satisfies every
// constraint. It tries nearest-rounding first, then floor-rounding — which
// always survives the ≤-rows-with-nonnegative-coefficients family the
// paper's models (and knapsacks) live in. No LP work, just feasibility
// sweeps over the rows. The objective is in the problem's own direction,
// like lp.Solution.Objective.
func (p *Problem) snapRound(sol lp.Solution) (x []float64, obj float64, ok bool) {
	nearest := roundIntegral(sol.X, p.integer)
	floored := append([]float64(nil), sol.X...)
	for v, isInt := range p.integer {
		if isInt && v < len(floored) {
			// Snap numerical noise (a binary at -1e-12 or 1+1e-12) to the
			// integer it already is before flooring — a raw floor would turn
			// -1e-12 into -1 and manufacture an infeasibility.
			if f, r := floored[v], math.Round(floored[v]); math.Abs(f-r) <= 1e-6 {
				floored[v] = r
			} else {
				floored[v] = math.Floor(f)
			}
		}
	}
	for _, cand := range [][]float64{nearest, floored} {
		if len(p.Problem.CheckFeasible(cand, 1e-6)) == 0 {
			return cand, p.Problem.Eval(cand), true
		}
	}
	return nil, 0, false
}

// hasBranch reports whether the exact bound is already in the list.
func hasBranch(bs []branch, b branch) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// mostFractional returns the integral variable whose relaxation value is
// farthest from an integer, or -1 if all integral variables are integral
// within tol.
func (p *Problem) mostFractional(x []float64, tol float64) int {
	best, bestFrac := -1, tol
	for v, isInt := range p.integer {
		if !isInt || v >= len(x) {
			continue
		}
		f := math.Abs(x[v] - math.Round(x[v]))
		if f > bestFrac {
			bestFrac = f
			best = v
		}
	}
	return best
}

func roundIntegral(x []float64, integer []bool) []float64 {
	out := append([]float64(nil), x...)
	for v, isInt := range integer {
		if isInt && v < len(out) {
			out[v] = math.Round(out[v])
		}
	}
	return out
}
