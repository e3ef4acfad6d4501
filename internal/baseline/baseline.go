// Package baseline implements the state-of-the-art comparison strategy the
// paper evaluates against (§VII-A): Min-Only, an optimization-based
// electricity-cost minimizer for Internet-scale data centers in the style of
// the paper's reference [2] (Rao et al., INFOCOM 2010).
//
// Min-Only differs from the paper's Cost Capping in exactly the three ways
// the paper lists:
//
//  1. it treats data centers as price takers — a constant locational price
//     per site, either the average of the step prices (Avg) or the lowest
//     (Low);
//  2. it models only server power, ignoring cooling and networking;
//  3. it has no notion of a cost budget: every arriving request is served
//     regardless of what the hour will cost.
package baseline

import (
	"fmt"
	"math"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// Variant selects the price-taker flattening.
type Variant int

// Min-Only variants.
const (
	// Avg prices each site at the mean of its policy's steps.
	Avg Variant = iota
	// Low prices each site at the lowest step.
	Low
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Avg:
		return "Min-Only (Avg)"
	case Low:
		return "Min-Only (Low)"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// MinOnly is the baseline decider.
type MinOnly struct {
	sys     *core.System
	variant Variant
}

// New builds a Min-Only baseline over the given sites and true policies; the
// flattened price view is derived internally.
func New(dcs []*dcmodel.Site, policies []pricing.Policy, v Variant) (*MinOnly, error) {
	view := core.ViewFlatAvg
	if v == Low {
		view = core.ViewFlatLow
	}
	sys, err := core.NewSystem(dcs, policies, core.Options{
		Scope:     dcmodel.ServerOnly,
		PriceView: view,
	})
	if err != nil {
		return nil, err
	}
	return &MinOnly{sys: sys, variant: v}, nil
}

// Name returns the paper's label for the strategy.
func (m *MinOnly) Name() string { return m.variant.String() }

// System exposes the underlying system (e.g. for realization in tests).
func (m *MinOnly) System() *core.System { return m.sys }

// Decide serves the entire workload at minimum believed cost, ignoring the
// hourly budget entirely (the paper: "all the incoming requests are serviced
// in Min-Only regardless of the given cost budget"): the two-step algorithm
// with capping disabled. Arrivals beyond what the baseline believes the
// fleet carries are truncated to its believed capacity (StepOverCapacity).
func (m *MinOnly) Decide(in core.HourInput) (core.Decision, error) {
	in.BudgetUSD = math.Inf(1)
	return m.sys.DecideHour(in)
}
