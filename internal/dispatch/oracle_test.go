package dispatch

import (
	"fmt"
	"math"
)

// Table and Gate are the mutable reference router and admission gate that
// Snapshot compiles away. They are kept here as the oracle the snapshot
// tests compare against: NewSnapshot must route the exact sequence a fresh
// Table routes, and admit the same prefix counts as a Gate.

// Table routes individual requests to sites in proportion to the capper's
// per-site allocation using the largest-remainder (Webster-like) method:
// after n requests, every site has received within ±1 of n·weight — far
// tighter than hashing and fully deterministic.
type Table struct {
	weights []float64
	credit  []float64
}

// NewTable builds a routing table from the capper's per-site loads. At
// least one load must be positive.
func NewTable(lambdas []float64) (*Table, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("dispatch: no sites")
	}
	total := 0.0
	for i, l := range lambdas {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("dispatch: bad load %v at site %d", l, i)
		}
		total += l
	}
	if total <= 0 {
		return nil, fmt.Errorf("dispatch: all-zero allocation")
	}
	if math.IsInf(total, 0) {
		// Each load is finite but the sum overflowed; weights would all
		// collapse to 0.
		return nil, fmt.Errorf("dispatch: total load overflows")
	}
	t := &Table{
		weights: make([]float64, len(lambdas)),
		credit:  make([]float64, len(lambdas)),
	}
	for i, l := range lambdas {
		t.weights[i] = l / total
	}
	return t, nil
}

// Weights returns the routing fractions (summing to 1).
func (t *Table) Weights() []float64 { return append([]float64(nil), t.weights...) }

// Route assigns the next request and returns its site index.
func (t *Table) Route() int {
	best, bestCredit := 0, math.Inf(-1)
	for i := range t.credit {
		t.credit[i] += t.weights[i]
		if t.credit[i] > bestCredit {
			bestCredit = t.credit[i]
			best = i
		}
	}
	t.credit[best]--
	return best
}

// RouteN assigns n requests and returns the per-site counts.
func (t *Table) RouteN(n int) []int {
	counts := make([]int, len(t.weights))
	for k := 0; k < n; k++ {
		counts[t.Route()]++
	}
	return counts
}

// Gate applies the capper's admission decision per request class.
type Gate struct {
	// ordinaryRate is the admitted fraction of ordinary traffic in [0,1].
	ordinaryRate float64
	credit       float64
}

// NewGate builds the admission gate from a capper decision: served ordinary
// over arrived ordinary. Premium is never gated.
func NewGate(servedOrdinary, arrivedOrdinary float64) (*Gate, error) {
	if !isFiniteNonNeg(servedOrdinary) || !isFiniteNonNeg(arrivedOrdinary) {
		return nil, fmt.Errorf("dispatch: bad rates %v/%v", servedOrdinary, arrivedOrdinary)
	}
	rate := 1.0
	if arrivedOrdinary > 0 {
		rate = servedOrdinary / arrivedOrdinary
		if rate > 1 {
			rate = 1
		}
	}
	return &Gate{ordinaryRate: rate}, nil
}

// OrdinaryRate returns the admitted fraction of ordinary traffic.
func (g *Gate) OrdinaryRate() float64 { return g.ordinaryRate }

// Admit decides one request deterministically (largest-remainder pacing for
// ordinary traffic, so admissions are evenly spread rather than bursty).
func (g *Gate) Admit(c Class) bool {
	if c == Premium {
		return true
	}
	g.credit += g.ordinaryRate
	if g.credit >= 1 {
		g.credit--
		return true
	}
	return false
}
