package sim

import (
	"fmt"
	"math"
	"math/rand"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/forecast"
	"billcap/internal/pricing"
)

// hasTariff reports whether the configuration bills anything beyond plain
// energy charges (or operates storage, which changes the metered draw).
func (c Config) hasTariff() bool {
	return c.DemandChargeUSDPerMWMonth > 0 || c.TwoSettlement || len(c.Batteries) > 0
}

func (c Config) rtSpread() float64 {
	if c.RTSpread <= 0 {
		return 0.15
	}
	return c.RTSpread
}

// newPosition assembles the run's billing position over the tariff the
// market actually bills. One position serves one Run; RunAll runs build one
// each, so ledgers and batteries never cross-contaminate.
func newPosition(cfg Config) (*controller.Position, error) {
	t := pricing.Tariff{
		Energy:                    cfg.Policies,
		DemandChargeUSDPerMWMonth: cfg.DemandChargeUSDPerMWMonth,
	}
	if cfg.TwoSettlement {
		ts, err := strikeDayAhead(cfg)
		if err != nil {
			return nil, err
		}
		t.Settlement = ts
	}
	pos, err := controller.New(t, cfg.Batteries)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return pos, nil
}

// strikeDayAhead strikes the two-settlement position before the month
// starts, exactly as a day-ahead market requires: commitments follow the
// hour-of-week forecast fitted on the history (split across sites in
// proportion to SLA capacity, converted to grid draw through each site's
// true power model), and the real-time price is the day-ahead price
// perturbed by seeded mean-one lognormal noise. Both series are
// deterministic in the config, so a crash-restarted run re-derives the
// identical market position.
func strikeDayAhead(cfg Config) (*pricing.TwoSettlement, error) {
	hw, err := forecast.FitHourOfWeek(cfg.History.Rates)
	if err != nil {
		return nil, err
	}
	pred := hw.PredictSeries(cfg.Month.Len())

	n := len(cfg.DCs)
	shares := make([]float64, n)
	total := 0.0
	for i, dc := range cfg.DCs {
		maxLam, err := dc.Queue.MaxThroughput(dc.MaxServers, dc.RespSLAHours)
		if err != nil {
			return nil, fmt.Errorf("sim: site %s: %w", dc.Name, err)
		}
		shares[i] = maxLam
		total += maxLam
	}

	ts := &pricing.TwoSettlement{CommitMW: make([][]float64, n), RTUSDPerMWh: make([][]float64, n)}
	for i := range ts.CommitMW {
		ts.CommitMW[i] = make([]float64, cfg.Month.Len())
		ts.RTUSDPerMWh[i] = make([]float64, cfg.Month.Len())
	}
	sigma := cfg.rtSpread()
	rng := rand.New(rand.NewSource(cfg.RTSeed + 1))
	for h := 0; h < cfg.Month.Len(); h++ {
		for i, dc := range cfg.DCs {
			lam := pred[h] * shares[i] / total
			b, err := dc.Evaluate(lam)
			if err != nil {
				return nil, fmt.Errorf("sim: site %s: %w", dc.Name, err)
			}
			c := math.Min(b.TotalMW(), dc.PowerCapMW)
			da := cfg.Policies[i].Price(cfg.Demand[i].At(h) + c)
			// Mean-one lognormal deviation keeps E[RT] = DA.
			ts.CommitMW[i][h] = c
			ts.RTUSDPerMWh[i][h] = da * math.Exp(sigma*rng.NormFloat64()-sigma*sigma/2)
		}
	}
	return ts, nil
}

// TariffBlind wraps a decider so it never sees the tariff extras: every hour
// is dispatched as if the demand charge, market position and batteries did
// not exist, while the market still bills them. This is the energy-only
// baseline that tariff-aware dispatch is measured against.
func TariffBlind(d Decider) Decider { return tariffBlind{d} }

type tariffBlind struct{ inner Decider }

func (b tariffBlind) Name() string { return b.inner.Name() + " (tariff-blind)" }

func (b tariffBlind) Decide(in core.HourInput) (core.Decision, error) {
	in.DemandChargeUSDPerMW = 0
	in.PeakMW = nil
	in.RTPriceUSDPerMWh = nil
	in.CommitMW = nil
	in.Batteries = nil
	return b.inner.Decide(in)
}
