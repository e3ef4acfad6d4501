// Package lp solves linear programs in the form
//
//	minimize    c·x
//	subject to  a_k·x (≤ | = | ≥) b_k   for every constraint k
//	            lo ≤ x ≤ hi             (lo ≥ 0; hi may be +Inf)
//
// Two interchangeable cores implement the same contract:
//
//   - CoreSparse (the default): a sparse revised simplex over a CSC-stored
//     constraint matrix with an LU-factorized basis, eta-file updates between
//     periodic refactorizations, native bounded-variable handling and Devex
//     pricing. Branching bounds and binary bounds are bound changes, not rows,
//     so the basis never grows during branch and bound.
//   - CoreDense: the original dense two-phase tableau simplex, retained as the
//     correctness oracle (variable bounds are lowered into explicit rows) and
//     as the fallback when the sparse core hits a numerical wall.
//
// Both cores answer identically within tolerance; the cross-oracle property
// tests in this package enforce that.
package lp

import (
	"fmt"
	"math"
)

// Core selects the simplex implementation.
type Core int

// Core values. The zero value is the production sparse core; the dense
// tableau is selected only by tests and benchmarks that use it as an oracle.
const (
	CoreSparse Core = iota // sparse revised simplex, LU basis, Devex pricing
	CoreDense              // dense two-phase tableau (the correctness oracle)
)

// String names the core ("sparse", "dense").
func (c Core) String() string {
	switch c {
	case CoreSparse:
		return "sparse"
	case CoreDense:
		return "dense"
	}
	return fmt.Sprintf("Core(%d)", int(c))
}

// Rel is the relation of a constraint row to its right-hand side.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a·x ≤ b
	GE            // a·x ≥ b
	EQ            // a·x = b
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Term is one sparse entry of a constraint or objective row.
type Term struct {
	Var  int     // variable index, 0-based
	Coef float64 // coefficient
}

// Constraint is a single linear row a·x (rel) b stored densely.
type Constraint struct {
	Coeffs []float64
	Rel    Rel
	RHS    float64
}

// Problem is a linear program under construction. The zero value is an empty
// problem ready for AddVar / AddConstraint.
type Problem struct {
	obj         []float64
	names       []string
	lower       []float64 // per-variable lower bounds (finite, ≥ 0)
	upper       []float64 // per-variable upper bounds (may be +Inf)
	constraints []Constraint
	maximize    bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// SetMaximize flips the optimization direction to maximization. The reported
// Solution.Objective is then the maximized value.
func (p *Problem) SetMaximize(max bool) { p.maximize = max }

// Maximizing reports whether the problem maximizes its objective.
func (p *Problem) Maximizing() bool { return p.maximize }

// AddVar appends a nonnegative variable with the given objective coefficient
// and returns its index. The name is only used for diagnostics.
func (p *Problem) AddVar(name string, objCoef float64) int {
	p.obj = append(p.obj, objCoef)
	p.names = append(p.names, name)
	p.lower = append(p.lower, 0)
	p.upper = append(p.upper, math.Inf(1))
	for i := range p.constraints {
		p.constraints[i].Coeffs = append(p.constraints[i].Coeffs, 0)
	}
	return len(p.obj) - 1
}

// SetVarBounds replaces the bounds of variable v with lo ≤ x_v ≤ hi. The
// lower bound must be finite and nonnegative (both cores keep x ≥ 0 exact);
// hi may be +Inf. The sparse core handles bounds natively — they cost no
// constraint rows — while the dense oracle lowers them into internal rows.
func (p *Problem) SetVarBounds(v int, lo, hi float64) {
	if v < 0 || v >= len(p.obj) {
		panic(fmt.Sprintf("lp: SetVarBounds on unknown variable %d", v))
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || lo < 0 || hi < lo {
		panic(fmt.Sprintf("lp: invalid bounds [%g, %g] for variable %d", lo, hi, v))
	}
	p.lower[v] = lo
	p.upper[v] = hi
}

// VarBounds returns the [lo, hi] bounds of variable v (default [0, +Inf)).
func (p *Problem) VarBounds(v int) (lo, hi float64) { return p.lower[v], p.upper[v] }

// defaultBounds reports whether variable v still has the AddVar default
// bounds [0, +Inf).
func (p *Problem) defaultBounds(v int) bool {
	return p.lower[v] == 0 && math.IsInf(p.upper[v], 1)
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// VarName returns the diagnostic name of variable v.
func (p *Problem) VarName(v int) string {
	if v < 0 || v >= len(p.names) {
		return fmt.Sprintf("x%d", v)
	}
	return p.names[v]
}

// ObjectiveCoef returns the objective coefficient of variable v.
func (p *Problem) ObjectiveCoef(v int) float64 { return p.obj[v] }

// SetObjectiveCoef overwrites the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, c float64) { p.obj[v] = c }

// AddConstraint appends the row Σ terms (rel) rhs and returns its index.
// Terms referencing the same variable accumulate.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) int {
	row := make([]float64, len(p.obj))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		row[t.Var] += t.Coef
	}
	p.constraints = append(p.constraints, Constraint{Coeffs: row, Rel: rel, RHS: rhs})
	return len(p.constraints) - 1
}

// Constraint returns a copy-free view of row k. Callers must not mutate it.
func (p *Problem) Constraint(k int) Constraint { return p.constraints[k] }

// Clone returns a deep copy of the problem, so that the copy can gain extra
// rows (e.g. branching bounds) without disturbing the original.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		obj:      append([]float64(nil), p.obj...),
		names:    append([]string(nil), p.names...),
		lower:    append([]float64(nil), p.lower...),
		upper:    append([]float64(nil), p.upper...),
		maximize: p.maximize,
	}
	q.constraints = make([]Constraint, len(p.constraints))
	for i, c := range p.constraints {
		q.constraints[i] = Constraint{
			Coeffs: append([]float64(nil), c.Coeffs...),
			Rel:    c.Rel,
			RHS:    c.RHS,
		}
	}
	return q
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // an optimal basic feasible solution was found
	Infeasible               // no point satisfies all constraints
	Unbounded                // the objective decreases without bound
	IterLimit                // the pivot limit was exhausted (should not happen)
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
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid when Status == Optimal)
	Objective float64   // objective value in the problem's own direction
	Pivots    int       // simplex iterations performed across both phases
	// Duals holds one shadow price per constraint row (valid when Status ==
	// Optimal): the rate of change of the optimal objective per unit of
	// right-hand side, in the problem's own optimization direction. This is
	// what makes the locational marginal price of a power-balance row drop
	// out of an optimal power flow.
	Duals []float64
	// Refactorizations and BasisUpdates count the sparse core's LU rebuilds
	// and eta-file basis updates; both stay 0 on the dense oracle.
	Refactorizations int
	BasisUpdates     int
}

// Residual describes how much a solution violates one constraint.
type Residual struct {
	Row       int
	Violation float64 // positive amount by which the row is violated
}

// CheckFeasible returns the rows of p violated by x beyond tol, including
// variable-bound violations (reported with Row == -1-varIndex).
func (p *Problem) CheckFeasible(x []float64, tol float64) []Residual {
	var out []Residual
	for v, xv := range x {
		lo, hi := 0.0, math.Inf(1)
		if v < len(p.lower) {
			lo, hi = p.lower[v], p.upper[v]
		}
		if xv < lo-tol {
			out = append(out, Residual{Row: -1 - v, Violation: lo - xv})
		} else if xv > hi+tol {
			out = append(out, Residual{Row: -1 - v, Violation: xv - hi})
		}
	}
	for k, c := range p.constraints {
		dot := 0.0
		for j, a := range c.Coeffs {
			if j < len(x) {
				dot += a * x[j]
			}
		}
		var viol float64
		switch c.Rel {
		case LE:
			viol = dot - c.RHS
		case GE:
			viol = c.RHS - dot
		case EQ:
			viol = math.Abs(dot - c.RHS)
		}
		if viol > tol {
			out = append(out, Residual{Row: k, Violation: viol})
		}
	}
	return out
}

// Eval returns the objective value of x in the problem's own direction.
func (p *Problem) Eval(x []float64) float64 {
	dot := 0.0
	for j, c := range p.obj {
		if j < len(x) {
			dot += c * x[j]
		}
	}
	return dot
}
