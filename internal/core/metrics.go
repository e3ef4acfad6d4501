package core

import (
	"time"

	"billcap/internal/obs"
)

// Metrics is the controller's instrumentation bundle over an obs.Registry.
// Attach it to a System with SetMetrics; every DecideHour then records its
// branch, latency, MILP effort and constraint posture. One bundle can be
// shared by several Systems over the same registry (the metrics are
// concurrency-safe), which is how a fleet of per-group cappers reports to
// one scrape endpoint.
type Metrics struct {
	decideTotal    *obs.Counter
	decideErrors   *obs.Counter
	decideStep     *obs.CounterVec
	decideDegraded *obs.CounterVec
	decideSeconds  *obs.Histogram

	fallbackUsed    *obs.Counter
	solverTimeouts  *obs.Counter
	staleDecisions  *obs.Counter
	auditRejections *obs.Counter

	milpSolves     *obs.Counter
	milpNodes      *obs.Counter
	milpPivots     *obs.Counter
	milpIncumbents *obs.Counter
	milpSeconds    *obs.Histogram

	lpRefactorizations *obs.Counter
	lpBasisUpdates     *obs.Counter

	decompSolves     *obs.Counter
	decompIterations *obs.Counter
	decompGap        *obs.Gauge

	predictedCost *obs.Gauge
	servedLambda  *obs.Gauge
	budgetBinding *obs.Gauge
	sitesOn       *obs.Gauge
	sitesAtCap    *obs.Gauge
}

// NewMetrics registers the controller metrics on reg. Step counters are
// pre-created at zero so a scrape sees every branch of the algorithm from
// the first sample on.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		decideTotal:  reg.Counter("billcap_decide_total", "Two-step capping decisions taken."),
		decideErrors: reg.Counter("billcap_decide_errors_total", "Decisions that returned an error."),
		decideStep: reg.CounterVec("billcap_decide_step_total",
			"Decisions by algorithm branch (paper §IV–§V).", "step"),
		decideDegraded: reg.CounterVec("billcap_decide_degraded_total",
			"Decisions by degradation-ladder rung (none = proven optimal).", "rung"),
		decideSeconds: reg.Histogram("billcap_decide_seconds",
			"End-to-end DecideHour latency in seconds.", obs.DefBuckets),

		fallbackUsed: reg.Counter("billcap_fallback_used_total",
			"Decisions produced by the greedy fallback dispatcher after MILP failure."),
		solverTimeouts: reg.Counter("billcap_solver_timeouts_total",
			"MILP solves that hit their wall-clock deadline and answered with an incumbent."),
		staleDecisions: reg.Counter("billcap_stale_decisions_total",
			"Decisions reusing a last-known-good plan because both solvers failed."),
		auditRejections: reg.Counter("billcap_audit_rejections_total",
			"Solver answers rejected by the independent feasibility audit."),

		milpSolves: reg.Counter("billcap_milp_solves_total", "MILP solves issued by the two-step algorithm."),
		milpNodes:  reg.Counter("billcap_milp_nodes_total", "Branch-and-bound nodes explored."),
		milpPivots: reg.Counter("billcap_milp_pivots_total", "Simplex pivots across all LP relaxations."),
		lpRefactorizations: reg.Counter("billcap_lp_refactorizations_total",
			"LU basis refactorizations performed by the sparse LP core."),
		lpBasisUpdates: reg.Counter("billcap_lp_basis_updates_total",
			"Eta-file basis updates performed by the sparse LP core between refactorizations."),
		decompSolves: reg.Counter("billcap_decomp_solves_total",
			"Step solves answered by Lagrangian dual decomposition instead of the exact MILP."),
		decompIterations: reg.Counter("billcap_decomp_iterations_total",
			"Subgradient iterations across dual-decomposition solves."),
		decompGap: reg.Gauge("billcap_decomp_gap",
			"Worst relative primal–dual gap among the last decision's decomposition solves."),
		milpIncumbents: reg.Counter("billcap_milp_incumbents_total",
			"Incumbent improvements found during branch-and-bound."),
		milpSeconds: reg.Histogram("billcap_milp_seconds",
			"Wall time spent inside MILP solves per decision, seconds.", obs.DefBuckets),

		predictedCost: reg.Gauge("billcap_decide_predicted_cost_usd",
			"Predicted electricity cost of the last decision."),
		servedLambda: reg.Gauge("billcap_decide_served_lambda",
			"Admitted requests/hour of the last decision."),
		budgetBinding: reg.Gauge("billcap_decide_budget_binding",
			"1 when the last decision was budget- or capacity-constrained (any branch but cost-min)."),
		sitesOn: reg.Gauge("billcap_decide_sites_on", "Sites powered on in the last decision."),
		sitesAtCap: reg.Gauge("billcap_decide_sites_at_power_cap",
			"Sites whose planned draw sits within rounding slack of the supplier power cap."),
	}
	for st := StepCostMin; st <= StepOverCapacity; st++ {
		m.decideStep.With(st.String())
	}
	for d := DegradeNone; d <= DegradeShed; d++ {
		m.decideDegraded.With(d.String())
	}
	return m
}

// RecordDegraded notes a decision produced below the MILP path — the
// Resilient ladder calls it for rungs the System itself never sees (the MILP
// erred or panicked, so observe() only recorded the failure). Safe on a nil
// receiver so callers need not guard for detached instrumentation.
func (m *Metrics) RecordDegraded(d Degrade) {
	if m == nil {
		return
	}
	switch d {
	case DegradeFallback, DegradeAudit:
		m.fallbackUsed.Inc()
	case DegradeStale:
		m.staleDecisions.Inc()
	}
	m.decideDegraded.With(d.String()).Inc()
}

// RecordAuditRejection counts an independent-audit rejection of a solver
// answer, whatever rung ultimately produced the hour's plan. Nil-safe.
func (m *Metrics) RecordAuditRejection() {
	if m == nil {
		return
	}
	m.auditRejections.Inc()
}

// SetMetrics attaches (or, with nil, detaches) instrumentation to the
// system. The swap is atomic, so it is safe to call while decisions are in
// flight; a decision that started before the swap reports to the bundle it
// loaded at observation time.
func (s *System) SetMetrics(m *Metrics) { s.metrics.Store(m) }

// Metrics returns the currently attached instrumentation bundle (nil when
// detached). The Metrics methods are nil-safe where noted.
func (s *System) Metrics() *Metrics { return s.metrics.Load() }

// observe records one DecideHour outcome.
func (m *Metrics) observe(s *System, dec Decision, err error, elapsed time.Duration) {
	m.decideTotal.Inc()
	m.decideSeconds.Observe(elapsed.Seconds())
	if err != nil {
		m.decideErrors.Inc()
		return
	}
	m.decideStep.With(dec.Step.String()).Inc()
	m.decideDegraded.With(dec.Degraded.String()).Inc()
	m.solverTimeouts.Add(float64(dec.Solver.Timeouts))
	m.milpSolves.Add(float64(dec.Solver.Solves))
	m.milpNodes.Add(float64(dec.Solver.Nodes))
	m.milpPivots.Add(float64(dec.Solver.LPIterations))
	m.lpRefactorizations.Add(float64(dec.Solver.LPRefactorizations))
	m.lpBasisUpdates.Add(float64(dec.Solver.LPBasisUpdates))
	m.milpIncumbents.Add(float64(dec.Solver.Incumbents))
	m.milpSeconds.Observe(dec.Solver.WallTime.Seconds())
	m.decompSolves.Add(float64(dec.Solver.DecompSolves))
	m.decompIterations.Add(float64(dec.Solver.DecompIterations))
	if dec.Solver.DecompSolves > 0 {
		m.decompGap.Set(dec.Solver.DecompGap)
	}

	m.predictedCost.Set(dec.PredictedCostUSD)
	m.servedLambda.Set(dec.Served)
	binding := 0.0
	if dec.Step != StepCostMin {
		binding = 1
	}
	m.budgetBinding.Set(binding)
	on, atCap := 0, 0
	for i, a := range dec.Sites {
		if !a.On {
			continue
		}
		on++
		dc := s.Sites[i].DC
		if a.PowerMW >= dc.PowerCapMW-dc.RoundingSlackMW() {
			atCap++
		}
	}
	m.sitesOn.Set(float64(on))
	m.sitesAtCap.Set(float64(atCap))
}
