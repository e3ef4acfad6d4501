// Package sim replays a month of hourly workload against a network of data
// centers under a chosen dispatching strategy and accounts the ground truth:
// realized power, the prices the markets actually charge, budget adherence
// and served throughput (paper §VI–§VII).
//
// Each simulated hour follows the paper's control loop:
//
//  1. the budgeter announces the hour's available budget,
//  2. the strategy decides the per-site workload allocation,
//  3. the dispatcher enforces it (no inter-site migration afterwards),
//  4. the realized bill is charged and recorded back into the budgeter.
package sim

import (
	"errors"
	"fmt"
	"math"

	"billcap/internal/budget"
	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/forecast"
	"billcap/internal/grid"
	"billcap/internal/obs"
	"billcap/internal/pricing"
	"billcap/internal/state"
	"billcap/internal/timeseries"
	"billcap/internal/workload"
)

// Decider is a dispatching strategy: Cost Capping or a baseline.
type Decider interface {
	// Name labels the strategy in reports.
	Name() string
	// Decide allocates one hour's workload.
	Decide(in core.HourInput) (core.Decision, error)
}

// Config describes one simulation run.
type Config struct {
	// DCs and Policies define the physical system and its power markets.
	DCs      []*dcmodel.Site
	Policies []pricing.Policy
	// Month is the evaluated workload (hour 0 = Monday 00:00).
	Month workload.Trace
	// History is the workload preceding Month, used to derive the
	// budgeter's hourly weights. It must end at a week boundary so that
	// hour-of-week alignment carries over.
	History workload.Trace
	// Demand is the per-region background draw covering at least the month.
	Demand []grid.Demand
	// PremiumFrac is the fraction of each hour's arrivals that is premium
	// (paper §VII-C: 0.8).
	PremiumFrac float64
	// MonthlyBudgetUSD caps the month's bill; +Inf disables capping.
	MonthlyBudgetUSD float64
	// DemandChargeUSDPerMWMonth adds a billing-period demand charge: the
	// month's bill includes this rate times each site's peak metered draw.
	// The decider sees the same rate plus the peak-so-far ledger, so the MILP
	// prices every MW of new peak it would set (0 = energy charges only).
	DemandChargeUSDPerMWMonth float64
	// Batteries co-locates storage with the sites (length 0 or len(DCs); a
	// zero CapacityMWh entry means no battery at that site). SoCMWh is the
	// starting charge; ValueUSDPerMWh is the stored-energy value the MILP
	// arbitrages against (0 → the site's mean LMP band).
	Batteries []core.BatterySpec
	// TwoSettlement bills energy in two settlements: day-ahead commitments
	// struck from the hour-of-week forecast at DA prices, deviations settled
	// at a synthesized real-time price series (a mean-one lognormal
	// deviation from day-ahead with relative sigma 0.15).
	TwoSettlement bool
	// RTSeed seeds the real-time price stream.
	RTSeed int64
	// PredictionError optionally corrupts the budgeter's workload
	// prediction with mean-one lognormal error of this relative magnitude
	// (robustness experiments; 0 = perfect hour-of-week prediction).
	PredictionError float64
	// PredictionSeed seeds the error stream.
	PredictionSeed int64
	// Faults, when non-nil, injects the schedule's failures into the run:
	// outages and feed corruptions are applied to the controller's observed
	// inputs (ground truth stays honest), and forced rung failures are
	// delivered to deciders implementing FaultSink.
	Faults *Faults
	// StateDir, when non-empty, makes the run crash-safe: a
	// controller.Journal records every hour in the directory, exactly as
	// capperd does with -state-dir. A
	// run over a directory with prior state resumes where the crashed run
	// stopped — restored budget ledger, restored degradation-ladder state —
	// instead of starting the month over. One directory serves one run at a
	// time; do not share it across RunAll strategies.
	StateDir string
	// HaltAfterHours, when > 0, simulates a SIGKILL: the run stops with
	// ErrHalted once the hour with this absolute index has been durably
	// recorded, leaving StateDir exactly as a dead process would.
	HaltAfterHours int
	// Trace, when non-nil, receives one structured decision trace per
	// simulated hour (e.g. obs.NewJSONSink over a file). The sink must be
	// safe for concurrent use if the config is shared by RunAll.
	Trace obs.Sink
	// Metrics, when non-nil, attaches the budgeter's ledger gauges to the
	// given registry for the run.
	Metrics *obs.Registry
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	switch {
	case len(c.DCs) == 0:
		return fmt.Errorf("sim: no data centers")
	case len(c.DCs) != len(c.Policies):
		return fmt.Errorf("sim: %d sites but %d policies", len(c.DCs), len(c.Policies))
	case len(c.Demand) != len(c.DCs):
		return fmt.Errorf("sim: %d demand regions for %d sites", len(c.Demand), len(c.DCs))
	case c.Month.Len() == 0:
		return fmt.Errorf("sim: empty month")
	case c.History.Len() == 0:
		return fmt.Errorf("sim: empty history")
	case c.History.Len()%workload.HoursPerWeek != 0:
		return fmt.Errorf("sim: history length %d is not whole weeks", c.History.Len())
	case c.PremiumFrac < 0 || c.PremiumFrac > 1:
		return fmt.Errorf("sim: premium fraction %v", c.PremiumFrac)
	case math.IsNaN(c.MonthlyBudgetUSD) || c.MonthlyBudgetUSD < 0:
		return fmt.Errorf("sim: monthly budget %v", c.MonthlyBudgetUSD)
	case math.IsNaN(c.DemandChargeUSDPerMWMonth) || math.IsInf(c.DemandChargeUSDPerMWMonth, 0) || c.DemandChargeUSDPerMWMonth < 0:
		return fmt.Errorf("sim: demand charge %v $/MW-month", c.DemandChargeUSDPerMWMonth)
	case len(c.Batteries) != 0 && len(c.Batteries) != len(c.DCs):
		return fmt.Errorf("sim: %d batteries for %d sites", len(c.Batteries), len(c.DCs))
	}
	for i, d := range c.Demand {
		if d.Len() < c.Month.Len() {
			return fmt.Errorf("sim: region %d has %d hours of demand for a %d-hour month",
				i, d.Len(), c.Month.Len())
		}
	}
	return nil
}

// HourRecord is one hour's ledger line.
type HourRecord struct {
	Hour            int
	Arrived         float64
	ArrivedPremium  float64
	ArrivedOrdinary float64
	ServedPremium   float64
	ServedOrdinary  float64
	HourlyBudget    float64 // available at decision time (+Inf when uncapped)
	PredictedCost   float64
	CostUSD         float64 // realized charge: energy, demand increment and settlement
	PenaltyUSD      float64 // realized cap penalties
	Step            core.Step
	Degraded        core.Degrade
	CapViolations   int
	Dropped         float64
	// EnergyUSD / DemandUSD / SettlementUSD decompose CostUSD; an
	// energy-only month bills EnergyUSD alone.
	EnergyUSD     float64
	DemandUSD     float64
	SettlementUSD float64
	// SiteLambda and SitePowerMW record the realized per-site dispatch and
	// IT draw (site order follows Config.DCs). SiteGridMW is the metered
	// supplier draw (the IT draw when no battery moved) and SiteSoCMWh the
	// post-hour battery charge (nil without batteries).
	SiteLambda  []float64
	SitePowerMW []float64
	SiteGridMW  []float64
	SiteSoCMWh  []float64
}

// BillUSD is the hour's total charge.
func (h HourRecord) BillUSD() float64 { return h.CostUSD + h.PenaltyUSD }

// ErrHalted marks a run stopped by Config.HaltAfterHours — the simulated
// SIGKILL of the crash-recovery tests. The partial Result is still returned.
var ErrHalted = errors.New("sim: halted by fault schedule")

// Result aggregates a full run.
type Result struct {
	Strategy string
	Hours    []HourRecord

	// StartHour is the first hour this run decided: 0 for a fresh month,
	// the restored cursor when the run resumed from Config.StateDir.
	StartHour int
	// Budget is the final ledger snapshot (nil when uncapped).
	Budget *budget.State
	// Restore reports what the state layer recovered at startup (nil when
	// Config.StateDir was empty).
	Restore *state.RestoreInfo

	MonthlyBudgetUSD float64
	TotalCostUSD     float64
	TotalPenaltyUSD  float64

	// TotalEnergyUSD / TotalDemandUSD / TotalSettlementUSD decompose
	// TotalCostUSD; PeakMW is the final billing-period peak ledger (all zero
	// without a demand charge). The demand-charge total telescopes:
	// Σ hourly increments = DemandChargeUSDPerMWMonth × Σ PeakMW.
	TotalEnergyUSD     float64
	TotalDemandUSD     float64
	TotalSettlementUSD float64
	PeakMW             []float64

	ArrivedPremium, ServedPremium   float64
	ArrivedOrdinary, ServedOrdinary float64

	// BudgetViolationHours counts hours whose realized bill exceeded the
	// hour's available budget (expected only for premium-mandatory hours
	// under Cost Capping, and freely for budget-blind baselines).
	BudgetViolationHours int
	CapViolationHours    int
	StepCounts           map[core.Step]int
	// DegradedHours attributes every hour to its degradation-ladder rung;
	// an unfaulted run has all hours under core.DegradeNone.
	DegradedHours map[core.Degrade]int

	Solver core.SolverStats
}

// TotalBillUSD is the month's total charge.
func (r Result) TotalBillUSD() float64 { return r.TotalCostUSD + r.TotalPenaltyUSD }

// BudgetUtilization is bill / monthly budget (0 when uncapped).
func (r Result) BudgetUtilization() float64 {
	if math.IsInf(r.MonthlyBudgetUSD, 1) || r.MonthlyBudgetUSD == 0 {
		return 0
	}
	return r.TotalBillUSD() / r.MonthlyBudgetUSD
}

// PremiumServiceRate is served/arrived premium traffic (1 when none arrived).
func (r Result) PremiumServiceRate() float64 {
	if r.ArrivedPremium == 0 {
		return 1
	}
	return r.ServedPremium / r.ArrivedPremium
}

// OrdinaryServiceRate is served/arrived ordinary traffic (1 when none).
func (r Result) OrdinaryServiceRate() float64 {
	if r.ArrivedOrdinary == 0 {
		return 1
	}
	return r.ServedOrdinary / r.ArrivedOrdinary
}

// HourlyBills extracts the realized bill series.
func (r Result) HourlyBills() timeseries.Series {
	out := make(timeseries.Series, len(r.Hours))
	for i, h := range r.Hours {
		out[i] = h.BillUSD()
	}
	return out
}

// HourlyBudgets extracts the available-budget series.
func (r Result) HourlyBudgets() timeseries.Series {
	out := make(timeseries.Series, len(r.Hours))
	for i, h := range r.Hours {
		out[i] = h.HourlyBudget
	}
	return out
}

// Run replays the month under the given strategy. Ground truth (discrete
// power, true LMP prices, penalties) is evaluated on a reference system that
// always models full power and true prices, regardless of what the strategy
// believes.
func Run(cfg Config, decider Decider) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	truth, err := core.NewSystem(cfg.DCs, cfg.Policies, core.Options{
		Scope:     dcmodel.FullPower,
		PriceView: core.ViewLMP,
	})
	if err != nil {
		return Result{}, err
	}

	capped := !math.IsInf(cfg.MonthlyBudgetUSD, 1)
	var budgeter *budget.Budgeter
	var fcState *forecast.HourOfWeekState
	var journal *controller.Journal
	res := Result{
		Strategy:         decider.Name(),
		MonthlyBudgetUSD: cfg.MonthlyBudgetUSD,
		StepCounts:       map[core.Step]int{},
		DegradedHours:    map[core.Degrade]int{},
	}

	pos, err := newPosition(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.StateDir != "" {
		var ladder *core.Resilient
		if lc, ok := decider.(ladderer); ok {
			ladder = lc.Ladder()
		}
		j, cp, info, err := controller.Open(cfg.StateDir, pos, ladder)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		journal = j
		defer journal.Close()
		res.Restore = &info
		if cp != nil {
			if capped {
				if cp.Budget == nil {
					return Result{}, fmt.Errorf("sim: state dir %q has no budget ledger to resume from", cfg.StateDir)
				}
				budgeter, err = budget.Restore(*cp.Budget)
				if err != nil {
					return Result{}, err
				}
				if budgeter.Horizon() != cfg.Month.Len() {
					return Result{}, fmt.Errorf("sim: restored ledger spans %d hours, month has %d",
						budgeter.Horizon(), cfg.Month.Len())
				}
			}
			fcState = cp.Forecast
		}
	}

	if capped && budgeter == nil {
		hw, err := forecast.FitHourOfWeek(cfg.History.Rates)
		if err != nil {
			return Result{}, err
		}
		pred := hw.PredictSeries(cfg.Month.Len())
		if cfg.PredictionError > 0 {
			pred = forecast.WithError(pred, cfg.PredictionError, cfg.PredictionSeed)
		}
		budgeter, err = budget.New(cfg.MonthlyBudgetUSD, pred)
		if err != nil {
			return Result{}, err
		}
		hws := hw.Snapshot()
		fcState = &hws
	}
	if capped && cfg.Metrics != nil {
		budgeter.SetMetrics(budget.NewMetrics(cfg.Metrics))
	}
	if journal != nil {
		journal.Carry(budgeter, fcState)
		res.StartHour = journal.Next()
	}

	cfg.Faults.deliver(decider)
	demand := make([]float64, len(cfg.DCs))
	halted := false
	for h := res.StartHour; h < cfg.Month.Len() && !halted; h++ {
		lambda := cfg.Month.At(h) * cfg.Faults.burst(h)
		premium, ordinary := workload.Split(lambda, cfg.PremiumFrac)
		for i := range demand {
			demand[i] = cfg.Demand[i].At(h)
		}
		hourBudget := math.Inf(1)
		if capped {
			hourBudget = budgeter.HourlyBudget()
		}
		in := core.HourInput{
			Hour:          h,
			TotalLambda:   lambda,
			PremiumLambda: premium,
			DemandMW:      cfg.Faults.observeDemand(h, demand),
			BudgetUSD:     hourBudget,
			Down:          cfg.Faults.down(h, len(cfg.DCs)),
		}
		pos.Attach(&in)
		dec, err := decider.Decide(in)
		if err != nil {
			return Result{}, fmt.Errorf("sim: hour %d: %w", h, err)
		}
		// A physically-down site serves nothing regardless of what the
		// decider planned; the lost traffic is shed in admission order
		// (ordinary first), mirroring how the controller itself sheds.
		lambdas := dec.Lambdas()
		servedPremium, servedOrdinary := dec.ServedPremium, dec.ServedOrdinary
		if lost := zeroDownSites(lambdas, in); lost > 0 {
			o := math.Min(lost, servedOrdinary)
			servedOrdinary -= o
			servedPremium = math.Max(0, servedPremium-(lost-o))
		}
		real, err := truth.Realize(lambdas, demand)
		if err != nil {
			return Result{}, fmt.Errorf("sim: hour %d: %w", h, err)
		}

		// The market bills the metered grid draw: the position runs the
		// planned battery actions against the realized IT draw and bills the
		// meter readings at the true demand. Cap penalties are charged on
		// the same readings, so charging above a cap is penalized too.
		itMW := make([]float64, len(real.Sites))
		for i, sr := range real.Sites {
			itMW[i] = sr.PowerMW
		}
		grid, bill, err := pos.Commit(in, dec, itMW, demand)
		if err != nil {
			return Result{}, fmt.Errorf("sim: hour %d: %w", h, err)
		}
		rec := HourRecord{
			Hour:            h,
			Arrived:         lambda,
			ArrivedPremium:  premium,
			ArrivedOrdinary: ordinary,
			ServedPremium:   servedPremium,
			ServedOrdinary:  servedOrdinary,
			HourlyBudget:    hourBudget,
			PredictedCost:   dec.PredictedCostUSD,
			CostUSD:         bill.TotalUSD(),
			Step:            dec.Step,
			Degraded:        dec.Degraded,
			Dropped:         real.DroppedLambda,
			EnergyUSD:       bill.EnergyUSD,
			DemandUSD:       bill.DemandUSD,
			SettlementUSD:   bill.SettlementUSD,
			SiteLambda:      make([]float64, len(real.Sites)),
			SitePowerMW:     itMW,
			SiteGridMW:      grid,
		}
		_, rec.SiteSoCMWh = pos.Snapshot()
		for i, sr := range real.Sites {
			rec.SiteLambda[i] = sr.Lambda
			if cap := cfg.DCs[i].PowerCapMW; grid[i] > cap+1e-9 {
				rec.PenaltyUSD += pricing.CapPenaltyUSDPerMWh * (grid[i] - cap)
				rec.CapViolations++
			}
		}
		if capped {
			if err := budgeter.Record(rec.BillUSD()); err != nil {
				return Result{}, fmt.Errorf("sim: hour %d: %w", h, err)
			}
		}
		res.Hours = append(res.Hours, rec)
		res.TotalCostUSD += rec.CostUSD
		res.TotalPenaltyUSD += rec.PenaltyUSD
		res.TotalEnergyUSD += rec.EnergyUSD
		res.TotalDemandUSD += rec.DemandUSD
		res.TotalSettlementUSD += rec.SettlementUSD
		res.ArrivedPremium += premium
		res.ArrivedOrdinary += ordinary
		res.ServedPremium += rec.ServedPremium
		res.ServedOrdinary += rec.ServedOrdinary
		res.StepCounts[dec.Step]++
		res.DegradedHours[dec.Degraded]++
		if rec.BillUSD() > hourBudget*(1+1e-9)+1e-6 {
			res.BudgetViolationHours++
		}
		if rec.CapViolations > 0 {
			res.CapViolationHours++
		}
		res.Solver.Accumulate(dec.Solver)

		if cfg.Trace != nil {
			tr := decisionTrace(cfg, h, in, dec, real, rec)
			if capped {
				tr.Budget = &obs.BudgetTrace{
					ShareUSD:     budgeter.Share(h),
					PoolUSD:      budgeter.Pool(),
					SpentUSD:     budgeter.Spent(),
					RemainingUSD: budgeter.Remaining(),
					Violations:   budgeter.Violations(),
				}
			}
			if err := cfg.Trace.Emit(tr); err != nil {
				return Result{}, fmt.Errorf("sim: hour %d: trace: %w", h, err)
			}
		}

		if journal != nil {
			if err := journal.Record(rec.BillUSD()); err != nil {
				return Result{}, fmt.Errorf("sim: hour %d: %w", h, err)
			}
		}
		halted = cfg.HaltAfterHours > 0 && h+1 >= cfg.HaltAfterHours
	}
	if budgeter != nil {
		bs := budgeter.Snapshot()
		res.Budget = &bs
	}
	res.PeakMW = pos.Peaks()
	if halted {
		return res, ErrHalted
	}
	return res, nil
}

// ladderer is the seam through which the harness reaches a decider's
// degradation ladder for checkpointing (ResilientCapping implements it).
type ladderer interface {
	Ladder() *core.Resilient
}

// zeroDownSites clears allocations to sites the hour's fault schedule took
// out, returning the load lost that way.
func zeroDownSites(lambdas []float64, in core.HourInput) float64 {
	lost := 0.0
	for i := range lambdas {
		if in.SiteDown(i) && lambdas[i] > 0 {
			lost += lambdas[i]
			lambdas[i] = 0
		}
	}
	return lost
}

// decisionTrace flattens one simulated hour into the observability trace
// record: the decision, the billed ground truth (rec carries the metered
// draw and the bill), and the solver effort.
func decisionTrace(cfg Config, h int, in core.HourInput, dec core.Decision, real core.Realization, rec HourRecord) obs.DecisionTrace {
	tr := obs.DecisionTrace{
		Hour:             h,
		Step:             dec.Step.String(),
		ArrivedLambda:    in.TotalLambda,
		PremiumLambda:    in.PremiumLambda,
		Served:           real.ServedLambda,
		ServedPremium:    dec.ServedPremium,
		ServedOrdinary:   dec.ServedOrdinary,
		DroppedLambda:    real.DroppedLambda,
		PredictedCostUSD: dec.PredictedCostUSD,
		RealizedCostUSD:  rec.CostUSD,
		PenaltyUSD:       rec.PenaltyUSD,
		CapViolations:    rec.CapViolations,
		EnergyUSD:        rec.EnergyUSD,
		DemandUSD:        rec.DemandUSD,
		SettlementUSD:    rec.SettlementUSD,
		Sites:            make([]obs.SiteTrace, len(real.Sites)),
		Solver: obs.SolverTrace{
			Solves:     dec.Solver.Solves,
			Nodes:      dec.Solver.Nodes,
			Pivots:     dec.Solver.LPIterations,
			Incumbents: dec.Solver.Incumbents,
			Timeouts:   dec.Solver.Timeouts,
			WallMS:     float64(dec.Solver.WallTime.Microseconds()) / 1e3,

			LPRefactorizations: dec.Solver.LPRefactorizations,
			LPBasisUpdates:     dec.Solver.LPBasisUpdates,

			DecompIterations: dec.Solver.DecompIterations,
			DecompGap:        dec.Solver.DecompGap,
			DecompDualBound:  dec.Solver.DecompDualBound,
		},
	}
	if dec.Degraded != core.DegradeNone {
		tr.Degraded = dec.Degraded.String()
	}
	if !math.IsInf(in.BudgetUSD, 1) {
		b := in.BudgetUSD
		tr.BudgetUSD = &b
	}
	for i, sr := range real.Sites {
		tr.Sites[i] = obs.SiteTrace{
			Site:           cfg.DCs[i].Name,
			Lambda:         sr.Lambda,
			PowerMW:        sr.PowerMW,
			PriceUSDPerMWh: sr.PriceUSDPerMWh,
			CostUSD:        sr.CostUSD,
			On:             sr.Lambda > 0 || sr.PowerMW > 0,
			GridMW:         rec.SiteGridMW[i],
		}
		if rec.SiteSoCMWh != nil {
			tr.Sites[i].SoCMWh = rec.SiteSoCMWh[i]
		}
	}
	return tr
}

// RunAll replays the same scenario under several strategies concurrently
// (each strategy holds its own optimizer state and budgeter, and the
// configuration is only read). Results come back in decider order; the
// first error aborts the batch.
func RunAll(cfg Config, deciders ...Decider) ([]Result, error) {
	type outcome struct {
		idx int
		res Result
		err error
	}
	ch := make(chan outcome, len(deciders))
	for i, d := range deciders {
		go func(i int, d Decider) {
			res, err := Run(cfg, d)
			ch <- outcome{idx: i, res: res, err: err}
		}(i, d)
	}
	results := make([]Result, len(deciders))
	var firstErr error
	for range deciders {
		o := <-ch
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		results[o.idx] = o.res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// CostCapping wraps the paper's two-step algorithm as a Decider.
type CostCapping struct {
	sys  *core.System
	name string
}

// NewCostCapping builds the paper's strategy over the given sites: full
// power model, true LMP price view.
func NewCostCapping(dcs []*dcmodel.Site, policies []pricing.Policy) (*CostCapping, error) {
	return NewCostCappingVariant("Cost Capping", dcs, policies, core.Options{
		Scope:     dcmodel.FullPower,
		PriceView: core.ViewLMP,
	})
}

// NewCostCappingVariant builds the two-step algorithm with explicit
// optimizer options — used by the ablation experiments (server-only power
// model, price-taker view) to isolate what each modeling choice buys.
func NewCostCappingVariant(name string, dcs []*dcmodel.Site, policies []pricing.Policy, opts core.Options) (*CostCapping, error) {
	sys, err := core.NewSystem(dcs, policies, opts)
	if err != nil {
		return nil, err
	}
	return &CostCapping{sys: sys, name: name}, nil
}

// Name labels the strategy as in the paper.
func (c *CostCapping) Name() string { return c.name }

// System exposes the underlying optimizer system.
func (c *CostCapping) System() *core.System { return c.sys }

// Decide runs the two-step bill capping algorithm.
func (c *CostCapping) Decide(in core.HourInput) (core.Decision, error) {
	return c.sys.DecideHour(in)
}
