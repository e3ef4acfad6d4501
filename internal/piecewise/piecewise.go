// Package piecewise implements right-open step functions and their exact
// encoding into mixed integer linear programs.
//
// The electricity price in a local power market is a step function of the
// total regional load (paper §II, Fig. 1): rate r_k applies while the load is
// in [t_{k-1}, t_k). The data center's hourly cost r_k·p is therefore a
// non-convex piecewise-linear function of its own power draw p, which is made
// MILP-representable with one binary per segment (the transformation of the
// paper's reference [22]).
package piecewise

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"billcap/internal/lp"
	"billcap/internal/milp"
)

// StepFunction maps a nonnegative load to a rate. Segment k (0-based) covers
// loads in [threshold[k-1], threshold[k]) with threshold[-1] = 0 and
// threshold[len-1] = +Inf implied; rates has exactly one more entry than
// thresholds... see New for the precise shape.
type StepFunction struct {
	// thresholds are the interior breakpoints, strictly increasing, > 0.
	thresholds []float64
	// rates[k] applies on [thresholds[k-1], thresholds[k]), with the implied
	// outer bounds 0 and +Inf. len(rates) == len(thresholds)+1.
	rates []float64
}

// New builds a step function from interior breakpoints and per-segment rates.
// rates[k] applies on [thresholds[k-1], thresholds[k]); the first segment
// starts at 0 and the last extends to +Inf, so len(rates) must equal
// len(thresholds)+1. Thresholds must be strictly increasing and positive.
func New(thresholds, rates []float64) (StepFunction, error) {
	if len(rates) != len(thresholds)+1 {
		return StepFunction{}, fmt.Errorf("piecewise: %d rates for %d thresholds, want %d",
			len(rates), len(thresholds), len(thresholds)+1)
	}
	// Check finiteness first: NaN slips through both the sortedness check
	// (every comparison involving NaN is false) and `t <= 0` below.
	for _, t := range thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return StepFunction{}, fmt.Errorf("piecewise: non-finite threshold %v", t)
		}
	}
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return StepFunction{}, fmt.Errorf("piecewise: non-finite rate %v", r)
		}
	}
	if !sort.Float64sAreSorted(thresholds) {
		return StepFunction{}, errors.New("piecewise: thresholds not sorted")
	}
	for i, t := range thresholds {
		if t <= 0 || (i > 0 && t == thresholds[i-1]) {
			return StepFunction{}, errors.New("piecewise: thresholds must be strictly increasing and positive")
		}
	}
	return StepFunction{
		thresholds: append([]float64(nil), thresholds...),
		rates:      append([]float64(nil), rates...),
	}, nil
}

// MustNew is New but panics on error; for package-level policy literals.
func MustNew(thresholds, rates []float64) StepFunction {
	f, err := New(thresholds, rates)
	if err != nil {
		panic(err)
	}
	return f
}

// Flat returns the constant function rate.
func Flat(rate float64) StepFunction {
	return StepFunction{rates: []float64{rate}}
}

// NumSegments returns the number of constant segments.
func (f StepFunction) NumSegments() int { return len(f.rates) }

// Rates returns a copy of the per-segment rates.
func (f StepFunction) Rates() []float64 { return append([]float64(nil), f.rates...) }

// Thresholds returns a copy of the interior breakpoints.
func (f StepFunction) Thresholds() []float64 { return append([]float64(nil), f.thresholds...) }

// SegmentBounds returns the half-open interval [lo, hi) of segment k, with
// hi = +Inf for the last segment.
func (f StepFunction) SegmentBounds(k int) (lo, hi float64) {
	lo = 0.0
	if k > 0 {
		lo = f.thresholds[k-1]
	}
	hi = math.Inf(1)
	if k < len(f.thresholds) {
		hi = f.thresholds[k]
	}
	return lo, hi
}

// Segment returns the index of the segment containing load.
func (f StepFunction) Segment(load float64) int {
	// The common case has ≤ 5 segments; a linear scan is fine.
	for k, t := range f.thresholds {
		if load < t {
			return k
		}
	}
	return len(f.rates) - 1
}

// Eval returns the rate that applies at the given load.
func (f StepFunction) Eval(load float64) float64 { return f.rates[f.Segment(load)] }

// Mean returns the arithmetic mean of the segment rates (used by the
// Min-Only (Avg) baseline, which flattens the policy to its average price).
func (f StepFunction) Mean() float64 {
	s := 0.0
	for _, r := range f.rates {
		s += r
	}
	return s / float64(len(f.rates))
}

// Min returns the lowest segment rate (Min-Only (Low) baseline).
func (f StepFunction) Min() float64 {
	m := f.rates[0]
	for _, r := range f.rates[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// Max returns the highest segment rate.
func (f StepFunction) Max() float64 {
	m := f.rates[0]
	for _, r := range f.rates[1:] {
		if r > m {
			m = r
		}
	}
	return m
}

// Scale returns a copy with every rate above the given load threshold having
// its increase over the base (first) rate multiplied by mult. This is how the
// paper derives Pricing Policies 2 and 3 from Policy 1: "double and triple
// the price increase of Policy 1 when the load is higher than 200 MW".
func (f StepFunction) Scale(mult, aboveLoad float64) StepFunction {
	out := StepFunction{
		thresholds: append([]float64(nil), f.thresholds...),
		rates:      append([]float64(nil), f.rates...),
	}
	base := f.rates[0]
	for k := range out.rates {
		lo, _ := f.SegmentBounds(k)
		if lo >= aboveLoad {
			out.rates[k] = base + mult*(f.rates[k]-base)
		}
	}
	return out
}

// boundaryEps keeps encoded segment powers strictly inside their half-open
// price interval [lo, hi): without it the optimizer would park the load
// exactly on a breakpoint and claim the cheaper side's rate while the market
// would already bill the next step. Loads are in MW, so 1e-6 is one watt.
const boundaryEps = 1e-6

// SegPlan is one reachable segment of an encoding for a given hour: the
// original segment index and the bounds [Lo, Hi] the segment-power variable
// must respect when selected. PlanSegments derives the plan; Encode realizes
// it as MILP rows, and the dual decomposition prices it site by site.
type SegPlan struct {
	// Seg is the original segment index in the step function.
	Seg int
	// Lo, Hi bound the encoded segment power (already demand-shifted and
	// margin-shrunk): Lo = max(0, t_{k-1}−d), Hi = min(pMax, t_k−d−margins).
	Lo, Hi float64
	// Rate is the segment's price.
	Rate float64
}

// PlanSegments computes the reachable-segment plan Encode would realize for
// the price function f at background demand d with a power variable in
// [0, pMax]. An empty reachable set is an error, exactly as in Encode.
func PlanSegments(f StepFunction, d, pMax, upperMargin float64) ([]SegPlan, error) {
	if d < 0 {
		return nil, fmt.Errorf("piecewise: negative background demand %v", d)
	}
	if pMax <= 0 {
		return nil, fmt.Errorf("piecewise: nonpositive pMax %v", pMax)
	}
	if upperMargin < 0 {
		return nil, fmt.Errorf("piecewise: negative upper margin %v", upperMargin)
	}
	var out []SegPlan
	for k := 0; k < f.NumSegments(); k++ {
		lo, hi := f.SegmentBounds(k)
		if hi <= d {
			// The whole segment lies below the background demand alone; a
			// nonnegative p can only move the regional load upward.
			continue
		}
		segLo := math.Max(0, lo-d)
		segHi := math.Min(pMax, hi-d-boundaryEps-upperMargin)
		if segHi < segLo {
			// Segment starts above d+pMax: out of reach.
			continue
		}
		out = append(out, SegPlan{Seg: k, Lo: segLo, Hi: segHi, Rate: f.rates[k]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("piecewise: no reachable segment for d=%v pMax=%v", d, pMax)
	}
	return out, nil
}

// Encoded is the set of MILP variables produced by Encode for one cost term
// rate(p+d)·p.
type Encoded struct {
	// Power is the index of the continuous variable p (the data center's own
	// draw), tied to the segment variables by an equality row.
	Power int
	// SegPower[j] is the power routed through reachable segment j.
	SegPower []int
	// SegBin[j] is the binary selecting reachable segment j.
	SegBin []int
	// SegRate[j] is the price of reachable segment j.
	SegRate []float64
	// Segments[j] is the original segment index of reachable segment j.
	Segments []int
}

// CostTerms returns the sparse terms Σ_j rate_j·segPower_j representing the
// encoded cost, usable both in objectives and in budget rows.
func (e Encoded) CostTerms() []lp.Term {
	out := make([]lp.Term, len(e.SegPower))
	for j, v := range e.SegPower {
		out[j] = lp.Term{Var: v, Coef: e.SegRate[j]}
	}
	return out
}

// SelectorTerms returns the sparse terms Σ_j z_j over the segment binaries,
// for tying segment selection to an on/off indicator (Σ z = y).
func (e Encoded) SelectorTerms() []lp.Term {
	out := make([]lp.Term, len(e.SegBin))
	for j, v := range e.SegBin {
		out[j] = lp.Term{Var: v, Coef: 1}
	}
	return out
}

// Encode adds to m the exact MILP model of the price function f applied at
// background demand d, for a power variable p ∈ [0, pMax]:
//
//	p = Σ_j p_j,   lo_j·z_j ≤ p_j ≤ hi_j·z_j,   Σ_j z_j ≤ 1 (selector)
//
// where segment j of f is reachable iff [lo_j, hi_j] = [max(0, t_{j-1}−d),
// min(pMax, t_j−d−upperMargin)] is a nonempty interval. upperMargin shrinks
// every segment's top so that a realization sitting up to that much above
// the planned power (integer server/switch rounding) still lands in the
// planned price segment rather than crossing into the next, dearer one.
// The caller chooses what Σ z_j must equal (1, or an on/off binary) via a
// constraint over SelectorTerms; Encode itself adds Σ z_j ≤ 1 only.
//
// The cost rate(p+d)·p is then exactly Σ_j rate_j·p_j for any feasible
// point with Σ z_j = 1, and 0 when all z_j = 0 (which forces p = 0).
func Encode(m *milp.Problem, f StepFunction, d, pMax, upperMargin float64, name string) (Encoded, error) {
	plan, err := PlanSegments(f, d, pMax, upperMargin)
	if err != nil {
		return Encoded{}, err
	}
	var e Encoded
	e.Power = m.AddVar(name+".p", 0)

	for _, sp := range plan {
		pv := m.AddVar(fmt.Sprintf("%s.p%d", name, sp.Seg), 0)
		zv := m.AddBinVar(fmt.Sprintf("%s.z%d", name, sp.Seg), 0)
		// p_k ≤ hi·z_k and p_k ≥ lo·z_k.
		m.AddConstraint([]lp.Term{{Var: pv, Coef: 1}, {Var: zv, Coef: -sp.Hi}}, lp.LE, 0)
		if sp.Lo > 0 {
			m.AddConstraint([]lp.Term{{Var: pv, Coef: 1}, {Var: zv, Coef: -sp.Lo}}, lp.GE, 0)
		}
		e.SegPower = append(e.SegPower, pv)
		e.SegBin = append(e.SegBin, zv)
		e.SegRate = append(e.SegRate, sp.Rate)
		e.Segments = append(e.Segments, sp.Seg)
	}

	// p − Σ p_j = 0.
	terms := []lp.Term{{Var: e.Power, Coef: 1}}
	for _, v := range e.SegPower {
		terms = append(terms, lp.Term{Var: v, Coef: -1})
	}
	m.AddConstraint(terms, lp.EQ, 0)
	// At most one segment active; the caller pins the sum to its indicator.
	m.AddConstraint(e.SelectorTerms(), lp.LE, 1)
	return e, nil
}
