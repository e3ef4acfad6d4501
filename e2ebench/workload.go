package main

import (
	"fmt"
	"math"

	"billcap/internal/api"
	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/forecast"
	"billcap/internal/grid"
	"billcap/internal/pricing"
	"billcap/internal/sim"
	"billcap/internal/workload"
)

// spec is one workload: which system capperd serves and how the benchmark
// drives it. The reasons for each choice are recorded in BENCHMARK.json.
type spec struct {
	name string
	// sites is the fleet size: 3 is the paper's sites and policies, any
	// other count the synthetic fleet of capperd -sites.
	sites int
	// capped gives every hour the tight-budget budgeter's share; otherwise
	// hours are uncapped, as in capsim -exp tariff.
	capped bool
	// decompose and tariff mirror capperd's -decompose and
	// -demand-charge 1500 -battery 40:15:0.9:20.
	decompose bool
	tariff    bool
	// warmup is how many hours each set-up decides before it is timed as
	// done; length is the fixed pass of hours the measured loop repeats.
	// Answer-quality metrics cover exactly the first pass, so they do not
	// depend on how fast the program is.
	warmup, length int
	// tail is the decide latency percentile reported as decide_tail_ms. It
	// is fixed per workload so runs stay comparable, and keeps at least ten
	// samples beyond it at the sample count a 20-second run collects; the
	// report's percentile ladder shows the counts.
	tail float64
	// sim measures the workload as repeated sim.Run months in process
	// instead of HTTP decides.
	sim bool
}

// demandCharge and batterySpec are capsim -exp tariff's settings, the
// equivalent of capperd -demand-charge 1500 -battery 40:15:0.9:20.
const demandCharge = 1500.0

var batterySpec = core.BatterySpec{
	CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15, Efficiency: 0.9, SoCMWh: 20,
}

// routesPerHour and the premium share of the route stream: each decide is
// followed by ten /v1/route calls, four premium to one ordinary.
const routesPerHour = 10

func routeIsPremium(k int) bool { return k%5 != 4 }

// monthHours is the evaluated paper month (four weeks); the generated trace
// is a history month followed by the evaluated month.
const monthHours = 4 * workload.HoursPerWeek

var workloads = []spec{
	{name: "paper-hours", sites: 3, capped: true, warmup: 48, length: monthHours - 48, tail: 0.99},
	{name: "tariff13", sites: 13, tariff: true, warmup: 24, length: monthHours - 24, tail: 0.99},
	{name: "fleet200", sites: 200, decompose: true, warmup: 12, length: workload.HoursPerWeek, tail: 0.98},
	{name: "sim-month", sites: 3, capped: true, warmup: 0, length: monthHours, tail: 0.99, sim: true},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// hour is one generated invocation period: the arrivals and background
// demand the routing tier observes and the budget the budgeter grants.
type hour struct {
	total, premium float64
	demandMW       []float64
	budgetUSD      float64 // +Inf when uncapped
}

// request renders the hour as the wire request capperd receives, with the
// absolute hour id the resilient path keys its staleness bound on.
func (h hour) request(id int) api.DecideRequest {
	req := api.DecideRequest{
		TotalLambda:   h.total,
		PremiumLambda: h.premium,
		DemandMW:      h.demandMW,
		Hour:          id,
		Resilient:     true,
	}
	if !math.IsInf(h.budgetUSD, 1) {
		b := h.budgetUSD
		req.BudgetUSD = &b
	}
	return req
}

// stream is everything a workload's inputs derive from one seed.
type stream struct {
	spec
	seed     int64
	dcs      []*dcmodel.Site
	policies []pricing.Policy
	// hours covers the warm-up followed by one pass (warmup+length hours).
	hours []hour
	// month is the sim.Run configuration over the same generated month.
	month sim.Config
}

// coreOptions are capperd's flag defaults for the workload: 5 s decide
// deadline, GOMAXPROCS solver workers, solve cache off, sparse LP core, and
// -decompose where the workload sets it.
func (s spec) coreOptions() core.Options {
	return core.Options{SolveDeadline: capperdDecideDeadline, Decompose: s.decompose}
}

// fleet returns the sites and policies capperd -sites builds.
func fleet(n int) ([]*dcmodel.Site, []pricing.Policy) {
	if n == 3 {
		return dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1)
	}
	return dcmodel.SyntheticSites(n), pricing.Synthetic(n)
}

// generate derives the workload's inputs from the seed. Seed 0 reproduces
// sim.PaperScenario's month exactly: the trace and grid seeds are the
// scenario's own, offset by the workload seed. Larger fleets carry the same
// trace shape scaled by their capacity relative to the paper's three sites,
// so every fleet runs at the paper's utilization.
func generate(sp spec, seed int64) (*stream, error) {
	dcs, pols := fleet(sp.sites)
	gen := workload.DefaultWikipedia()
	gen.Seed += seed
	gen.Hours = 2 * monthHours
	trace, err := workload.Synthetic(gen)
	if err != nil {
		return nil, err
	}
	if sp.sites != 3 {
		scale, err := capacityRatio(dcs, pols)
		if err != nil {
			return nil, err
		}
		for i := range trace.Rates {
			trace.Rates[i] *= scale
		}
	}
	history := trace.Slice(0, monthHours)
	month := trace.Slice(monthHours, 2*monthHours)

	var regions []grid.Demand
	if sp.sites == 3 {
		regions, err = grid.PaperRegions(2*monthHours, 20050601+seed)
	} else {
		regions, err = grid.SyntheticRegions(sp.sites, 2*monthHours, 20050601+seed)
	}
	if err != nil {
		return nil, err
	}
	demand := make([]grid.Demand, len(regions))
	for i, r := range regions {
		demand[i] = grid.Demand{Region: r.Region, MW: r.MW[monthHours:].Clone()}
	}

	monthly := sim.Uncapped()
	var shares *budget.Budgeter
	if sp.capped {
		monthly = sim.TightBudget()
		hw, err := forecast.FitHourOfWeek(history.Rates)
		if err != nil {
			return nil, err
		}
		if shares, err = budget.New(monthly, hw.PredictSeries(monthHours)); err != nil {
			return nil, err
		}
	}

	st := &stream{spec: sp, seed: seed, dcs: dcs, policies: pols}
	n := sp.warmup + sp.length
	if n > monthHours {
		return nil, fmt.Errorf("%s: %d hours exceed the %d-hour month", sp.name, n, monthHours)
	}
	st.hours = make([]hour, n)
	for h := range st.hours {
		rate := month.At(h)
		premium, _ := workload.Split(rate, premiumFrac)
		d := make([]float64, len(demand))
		for i := range d {
			d[i] = demand[i].At(h)
		}
		b := math.Inf(1)
		if shares != nil {
			b = shares.Share(h)
		}
		st.hours[h] = hour{total: rate, premium: premium, demandMW: d, budgetUSD: b}
	}

	st.month = sim.Config{
		DCs:              dcs,
		Policies:         pols,
		Month:            month,
		History:          history,
		Demand:           demand,
		PremiumFrac:      premiumFrac,
		MonthlyBudgetUSD: monthly,
	}
	if !sp.sim {
		// Traced runs of the HTTP workloads simulate only the hours the
		// stream covers, with the budget scaled to match.
		st.month.Month = month.Slice(0, n)
		if sp.capped {
			st.month.MonthlyBudgetUSD = monthly * float64(n) / monthHours
		}
	}
	if sp.tariff {
		st.month.DemandChargeUSDPerMWMonth = demandCharge
		st.month.Batteries = batteries(len(dcs))
	}
	return st, nil
}

// premiumFrac is the paper's 80/20 premium/ordinary split (§VII-C).
const premiumFrac = 0.8

func batteries(n int) []core.BatterySpec {
	b := make([]core.BatterySpec, n)
	for i := range b {
		b[i] = batterySpec
	}
	return b
}

// capacityRatio is the fleet's SLA-and-cap throughput over the paper
// fleet's.
func capacityRatio(dcs []*dcmodel.Site, pols []pricing.Policy) (float64, error) {
	sys, err := core.NewSystem(dcs, pols, core.Options{})
	if err != nil {
		return 0, err
	}
	pdcs, ppols := fleet(3)
	paper, err := core.NewSystem(pdcs, ppols, core.Options{})
	if err != nil {
		return 0, err
	}
	return sys.MaxThroughput() / paper.MaxThroughput(), nil
}
