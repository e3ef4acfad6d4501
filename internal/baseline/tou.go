package baseline

import (
	"math"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/piecewise"
	"billcap/internal/pricing"
)

// Time-of-use (TOU) window: the industry-standard on-peak block. The
// paper's related work (Le et al., refs [32]-[34]) "assume two electricity
// prices at each data center, one for on-peak hours and another for
// off-peak hours" — time-aware but still load-blind.
const (
	onPeakStartHour = 8
	onPeakEndHour   = 20 // exclusive
)

// TimeOfUse is a Le-style baseline: it knows that peak hours are expensive
// and off-peak hours are cheap (two flat prices per site derived from the
// true step policy), but not that its own dispatch moves the price. Like
// Min-Only it models only server power and ignores budgets.
type TimeOfUse struct {
	peak, offpeak *core.System
}

// NewTimeOfUse derives the two-tariff view from the true policies: the
// on-peak price of a site is the mean of its upper half of step rates, the
// off-peak price the mean of the lower half.
func NewTimeOfUse(dcs []*dcmodel.Site, policies []pricing.Policy) (*TimeOfUse, error) {
	peakPols := make([]pricing.Policy, len(policies))
	offPols := make([]pricing.Policy, len(policies))
	for i, p := range policies {
		rates := p.Fn.Rates()
		half := len(rates) / 2
		if half == 0 {
			half = 1
		}
		offPols[i] = flatPolicy(p, "offpeak", mean(rates[:half]))
		peakPols[i] = flatPolicy(p, "onpeak", mean(rates[len(rates)-half:]))
	}
	mk := func(pols []pricing.Policy) (*core.System, error) {
		return core.NewSystem(dcs, pols, core.Options{
			Scope:     dcmodel.ServerOnly,
			PriceView: core.ViewLMP, // the flat policies ARE the view
		})
	}
	peak, err := mk(peakPols)
	if err != nil {
		return nil, err
	}
	off, err := mk(offPols)
	if err != nil {
		return nil, err
	}
	return &TimeOfUse{peak: peak, offpeak: off}, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func flatPolicy(src pricing.Policy, tag string, rate float64) pricing.Policy {
	return pricing.Policy{
		Name:     src.Name + "/" + tag,
		Location: src.Location,
		Fn:       piecewise.Flat(rate),
	}
}

// Name labels the strategy.
func (t *TimeOfUse) Name() string { return "TOU (two-price)" }

// OnPeak reports whether the absolute hour falls in the on-peak window.
func OnPeak(hour int) bool {
	h := ((hour % 24) + 24) % 24
	return h >= onPeakStartHour && h < onPeakEndHour
}

// Decide serves everything at minimum believed cost under the tariff of the
// hour, ignoring the budget like Min-Only does.
func (t *TimeOfUse) Decide(in core.HourInput) (core.Decision, error) {
	sys := t.offpeak
	if OnPeak(in.Hour) {
		sys = t.peak
	}
	in.BudgetUSD = math.Inf(1)
	return sys.DecideHour(in)
}
