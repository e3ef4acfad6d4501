// Package api exposes the bill capper as a JSON-over-HTTP control service —
// the interface a production request-routing tier (e.g. an authoritative
// DNS dispatcher, paper §III) would call once per invocation period.
//
// Endpoints:
//
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining or persistently degraded)
//	GET  /metrics       Prometheus text exposition (controller + HTTP metrics)
//	GET  /debug/pprof/  runtime profiling (CPU, heap, goroutines, …)
//	GET  /v1/sites      site inventory (capacity, caps, market)
//	GET  /v1/policies   locational pricing policies
//	POST /v1/decide     one hour's two-step capping decision
//	POST /v1/decide/batch  many independent hours, solved concurrently
//	POST /v1/realize    ground-truth billing of an allocation
//	POST /v1/model      dump the hour's MILP in lp_solve-style text
//	POST /v1/route      admit-and-route one request on the live snapshot (O(1))
//	POST /v1/route/batch  admit-and-route n requests in closed form
//	GET  /v1/route/table  live routing snapshot (weights, drift posture)
//	GET  /v1/tariff     billing position (peak ledger, battery bank)
//
// All errors — including 404s, panics and oversized bodies — use one JSON
// envelope: {"error": "..."}. Status codes follow one contract: malformed or
// invalid requests are 400 (the client's fault), solver and model failures
// are 500 (ours), and a request whose own deadline expired before the solver
// could start is 504.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/obs"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

// maxBodyBytes caps POST request bodies; the control payloads are a few
// hundred bytes, so 1 MiB is generous headroom against abuse.
const maxBodyBytes = 1 << 20

// maxConsecutiveDegraded is how many back-to-back degraded resilient
// decisions (fallback rung or below) flip /readyz to 503: the controller is
// still answering, but a load balancer with a healthier replica should
// prefer it.
const maxConsecutiveDegraded = 3

// Server handles the control API for one system.
type Server struct {
	sys       *core.System
	resilient *core.Resilient
	sites     []*dcmodel.Site
	policies  []pricing.Policy
	mux       *http.ServeMux
	reg       *obs.Registry
	metrics   *httpMetrics
	// route is the lock-free request data plane: every decision installs an
	// immutable routing snapshot that /v1/route and /v1/route/batch serve
	// without locks or solving (see route.go).
	route *RoutePlane
	// journal, when non-nil (see EnableState), records every decide that
	// changes the ladder or the billing position, under tariffMu; restored
	// is what it recovered at startup.
	journal       *controller.Journal
	restored      state.RestoreInfo
	persistErrors *obs.Counter
	// tariff is the billing position: energy charges alone until
	// EnableTariff adds a demand charge and batteries. Every use holds
	// tariffMu (see withTariff); tariffSet records that EnableTariff ran.
	tariff    *controller.Position
	tariffMu  sync.Mutex
	tariffSet bool

	draining       atomic.Bool
	consecDegraded atomic.Int64
}

// New builds the server over an assembled system, instrumented on a fresh
// metrics registry (see Registry).
func New(dcs []*dcmodel.Site, policies []pricing.Policy, opts core.Options) (*Server, error) {
	sys, err := core.NewSystem(dcs, policies, opts)
	if err != nil {
		return nil, err
	}
	pos, err := controller.New(pricing.Tariff{Energy: policies}, nil)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	reg := obs.NewRegistry()
	sys.SetMetrics(core.NewMetrics(reg))
	s := &Server{
		sys: sys, resilient: core.NewResilient(sys, core.ResilientOptions{}),
		sites: dcs, policies: policies, tariff: pos,
		mux: http.NewServeMux(), reg: reg, metrics: newHTTPMetrics(reg),
	}
	names := make([]string, len(dcs))
	for i, dc := range dcs {
		names[i] = dc.Name
	}
	s.route, err = newRoutePlane(s.resilient, reg, names, defaultDriftRatio)
	if err != nil {
		return nil, err
	}
	s.handle("/healthz", s.handleHealth)
	s.handle("/readyz", s.handleReady)
	s.handle("/v1/sites", s.handleSites)
	s.handle("/v1/policies", s.handlePolicies)
	s.handle("/v1/decide", s.handleDecide)
	s.handle("/v1/decide/batch", s.handleDecideBatch)
	s.handle("/v1/realize", s.handleRealize)
	s.handle("/v1/model", s.handleModel)
	s.handle("/v1/route", s.handleRoute)
	s.handle("/v1/route/batch", s.handleRouteBatch)
	s.handle("/v1/route/table", s.handleRouteTable)
	s.handle("/v1/tariff", s.handleTariff)
	// Routing totals live in the snapshots' striped counters and the
	// billing position behind its lock; fold both into the registry so
	// every scrape is current.
	s.handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.route.FlushMetrics()
		s.publishTariff()
		obs.Handler(reg).ServeHTTP(w, r)
	})
	// Profiling surface, on the explicit handlers (not DefaultServeMux).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Everything unmatched gets the JSON error envelope instead of the
	// mux's plain-text 404.
	s.handle("/", s.handleNotFound)
	return s, nil
}

// handle registers a route wrapped in panic recovery and the
// counting/timing middleware.
func (s *Server) handle(route string, h http.HandlerFunc) {
	s.mux.HandleFunc(route, s.metrics.instrument(route, recovered(h)))
}

// Handler returns the HTTP handler (for http.Server or tests).
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips /readyz to 503 (true) or back (false) so load balancers
// stop routing new work while in-flight requests finish; the daemon calls it
// when the shutdown signal arrives.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Resilient exposes the server's degradation ladder — the seam through which
// an operator (or a chaos test) can force rung failures.
func (s *Server) Resilient() *core.Resilient { return s.resilient }

// noteRung feeds the readiness trip: consecutive decisions at the fallback
// rung or below mark the replica unready; any healthier decision resets it.
func (s *Server) noteRung(d core.Degrade) {
	if d >= core.DegradeFallback {
		s.consecDegraded.Add(1)
	} else {
		s.consecDegraded.Store(0)
	}
}

// Registry exposes the server's metrics registry so the daemon (or an
// embedding test) can add process-level series next to the controller's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// RoutePlane exposes the request data plane (for the daemon and tests).
func (s *Server) RoutePlane() *RoutePlane { return s.route }

// SetDriftRatio reconfigures the data plane's drift trip ratio: 0 disables
// drift re-solves, any other value must be finite and > 1.
func (s *Server) SetDriftRatio(ratio float64) error { return s.route.SetDriftRatio(ratio) }

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusFor maps a controller error onto the API contract: malformed input
// is the client's fault (400), an exhausted request deadline is 504, and
// everything else — solver failures, model bugs — is ours (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// readJSON decodes a capped request body into v. On failure it writes the
// JSON error envelope (413 for oversized bodies, 400 otherwise) and
// reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", r.URL.Path))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady reports whether this replica should receive traffic: 503 while
// draining for shutdown, and 503 once maxConsecutiveDegraded resilient
// decisions in a row have run at the fallback rung or below.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if n := s.consecDegraded.Load(); n >= maxConsecutiveDegraded {
		body := map[string]any{
			"status": "degraded", "consecutiveDegradedDecisions": n,
		}
		s.addRestoreStatus(body)
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body := map[string]any{"status": "ready"}
	s.addRestoreStatus(body)
	writeJSON(w, http.StatusOK, body)
}

// addRestoreStatus attaches what the state layer recovered at startup, so an
// operator checking /readyz after a restart sees whether the ladder resumed
// and whether any corruption was truncated on the way.
func (s *Server) addRestoreStatus(body map[string]any) {
	if s.journal != nil {
		body["restore"] = s.restored
	}
}

// SiteInfo is the inventory entry of /v1/sites.
type SiteInfo struct {
	Name          string  `json:"name"`
	MaxServers    int     `json:"maxServers"`
	PowerCapMW    float64 `json:"powerCapMW"`
	MaxLambda     float64 `json:"maxLambdaReqPerHour"`
	Market        string  `json:"market"`
	FatTreeK      int     `json:"fatTreeK"`
	CoolingEff    float64 `json:"coolingEfficiency"`
	ServiceRateHz float64 `json:"perServerReqPerSec"`
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	out := make([]SiteInfo, len(s.sites))
	for i, dc := range s.sites {
		maxLam, err := dc.MaxLambda()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		out[i] = SiteInfo{
			Name:          dc.Name,
			MaxServers:    dc.MaxServers,
			PowerCapMW:    dc.PowerCapMW,
			MaxLambda:     maxLam,
			Market:        s.policies[i].Name,
			FatTreeK:      dc.Net.K,
			CoolingEff:    dc.CoolingEff,
			ServiceRateHz: dc.Queue.Mu / 3600,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// PolicyInfo is one region's step policy in /v1/policies.
type PolicyInfo struct {
	Name     string    `json:"name"`
	Location string    `json:"location"`
	StepsMW  []float64 `json:"stepThresholdsMW"`
	Rates    []float64 `json:"ratesUSDPerMWh"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	out := make([]PolicyInfo, len(s.policies))
	for i, p := range s.policies {
		out[i] = PolicyInfo{
			Name:     p.Name,
			Location: p.Location,
			StepsMW:  p.Fn.Thresholds(),
			Rates:    p.Fn.Rates(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// DecideRequest is the body of POST /v1/decide. A null/omitted budget means
// uncapped.
type DecideRequest struct {
	TotalLambda   float64   `json:"totalLambda"`
	PremiumLambda float64   `json:"premiumLambda"`
	DemandMW      []float64 `json:"demandMW"`
	BudgetUSD     *float64  `json:"budgetUSD"`
	// Hour is the absolute hour index (used by the staleness bound of the
	// resilient path); 0 is fine for one-shot requests.
	Hour int `json:"hour,omitempty"`
	// Down marks sites unavailable this hour (site order as /v1/sites).
	Down []bool `json:"down,omitempty"`
	// TimeoutMS bounds the decision's wall-clock budget; a solve that
	// expires answers with its best incumbent (degraded "time-limit")
	// rather than holding the request. 0 → the server's solver options.
	TimeoutMS float64 `json:"timeoutMS,omitempty"`
	// Resilient routes the request through the degradation ladder: the
	// answer may be degraded (see "degraded" in the response) but solver
	// failures never surface as errors.
	Resilient bool `json:"resilient,omitempty"`

	// Tariff overrides (all optional). Omitted fields are filled from the
	// server's live billing position — the demand-charge rate, the
	// peak-so-far ledger and the battery bank — and the decision commits
	// back into that position. Supplying PeakMW or Batteries explicitly
	// makes the request what-if: the answer reflects them but nothing is
	// committed.
	DemandChargeUSDPerMW float64            `json:"demandChargeUSDPerMW,omitempty"`
	PeakMW               []float64          `json:"peakMW,omitempty"`
	RTPriceUSDPerMWh     []float64          `json:"rtPriceUSDPerMWh,omitempty"`
	CommitMW             []float64          `json:"commitMW,omitempty"`
	Batteries            []core.BatterySpec `json:"batteries,omitempty"`
}

// SiteDecision is one site's share in a DecideResponse.
type SiteDecision struct {
	Site           string  `json:"site"`
	Lambda         float64 `json:"lambda"`
	PowerMW        float64 `json:"powerMW"`
	PriceUSDPerMWh float64 `json:"priceUSDPerMWh"`
	CostUSD        float64 `json:"costUSD"`
	On             bool    `json:"on"`
	// Tariff fields (omitted outside tariff decisions): the metered supplier
	// draw, planned battery actions, and the cost decomposition.
	GridMW      float64 `json:"gridMW,omitempty"`
	ChargeMW    float64 `json:"chargeMW,omitempty"`
	DischargeMW float64 `json:"dischargeMW,omitempty"`
	EnergyUSD   float64 `json:"energyUSD,omitempty"`
	DemandUSD   float64 `json:"demandUSD,omitempty"`
}

// DecideResponse is the capper's answer.
type DecideResponse struct {
	Step string `json:"step"`
	// Degraded names the degradation rung that produced the answer
	// ("time-limit", "fallback", "stale", "shed"); empty when the solve was
	// proven optimal.
	Degraded         string  `json:"degraded,omitempty"`
	Served           float64 `json:"served"`
	ServedPremium    float64 `json:"servedPremium"`
	ServedOrdinary   float64 `json:"servedOrdinary"`
	PredictedCostUSD float64 `json:"predictedCostUSD"`
	// EnergyCostUSD / DemandChargeUSD / SettlementUSD decompose
	// PredictedCostUSD when the tariff engine priced the hour; all omitted
	// on plain energy-only decisions.
	EnergyCostUSD    float64        `json:"energyCostUSD,omitempty"`
	DemandChargeUSD  float64        `json:"demandChargeUSD,omitempty"`
	SettlementUSD    float64        `json:"settlementUSD,omitempty"`
	Sites            []SiteDecision `json:"sites"`
	SolverNodes      int            `json:"solverNodes"`
	SolverSolves     int            `json:"solverSolves"`
	SolverPivots     int            `json:"solverPivots"`
	SolverIncumbents int            `json:"solverIncumbents"`
	SolverTimeouts   int            `json:"solverTimeouts,omitempty"`
	SolverWallMS     float64        `json:"solverWallMS"`
	// SolverPresolveFixed and SolverWarmStarted are always 0 and so never
	// encoded: the solver has no presolve and no cross-hour warm start. They
	// stay only because the end-to-end benchmark module reads them; they go
	// when that benchmark is next changed.
	SolverPresolveFixed int `json:"solverPresolveFixed,omitempty"`
	SolverWarmStarted   int `json:"solverWarmStarted,omitempty"`
	// SolverLPRefactorizations / SolverLPBasisUpdates expose the sparse LP
	// core's basis-factorization work (0 when the dense oracle ran).
	SolverLPRefactorizations int `json:"solverLPRefactorizations,omitempty"`
	SolverLPBasisUpdates     int `json:"solverLPBasisUpdates,omitempty"`
	// SolverDecompIterations / SolverDecompGap / SolverDecompDualBound report
	// the Lagrangian dual-decomposition effort when the fleet-scale path
	// answered (subgradient iterations, worst proven relative primal–dual
	// gap, last dual bound); all omitted on the exact-MILP path.
	SolverDecompIterations int     `json:"solverDecompIterations,omitempty"`
	SolverDecompGap        float64 `json:"solverDecompGap,omitempty"`
	SolverDecompDualBound  float64 `json:"solverDecompDualBound,omitempty"`
}

// hourInputFrom maps the wire request onto the controller's input; a
// null/omitted budget means uncapped. Tariff fields the request leaves out
// are filled from the server's live position.
func (s *Server) hourInputFrom(req DecideRequest) core.HourInput {
	in := core.HourInput{
		Hour:          req.Hour,
		TotalLambda:   req.TotalLambda,
		PremiumLambda: req.PremiumLambda,
		DemandMW:      req.DemandMW,
		BudgetUSD:     math.Inf(1),
		Down:          req.Down,

		DemandChargeUSDPerMW: req.DemandChargeUSDPerMW,
		PeakMW:               req.PeakMW,
		RTPriceUSDPerMWh:     req.RTPriceUSDPerMWh,
		CommitMW:             req.CommitMW,
		Batteries:            req.Batteries,
	}
	if req.BudgetUSD != nil {
		in.BudgetUSD = *req.BudgetUSD
	}
	s.withTariff(func(p *controller.Position) { p.Attach(&in) })
	return in
}

// decideResponseFrom renders a controller decision onto the wire shape
// shared by /v1/decide and /v1/decide/batch.
func (s *Server) decideResponseFrom(dec core.Decision) DecideResponse {
	resp := DecideResponse{
		Step:             dec.Step.String(),
		Served:           dec.Served,
		ServedPremium:    dec.ServedPremium,
		ServedOrdinary:   dec.ServedOrdinary,
		PredictedCostUSD: dec.PredictedCostUSD,
		SolverNodes:      dec.Solver.Nodes,
		SolverSolves:     dec.Solver.Solves,
		SolverPivots:     dec.Solver.LPIterations,
		SolverIncumbents: dec.Solver.Incumbents,
		SolverTimeouts:   dec.Solver.Timeouts,
		SolverWallMS:     float64(dec.Solver.WallTime.Microseconds()) / 1e3,

		SolverLPRefactorizations: dec.Solver.LPRefactorizations,
		SolverLPBasisUpdates:     dec.Solver.LPBasisUpdates,

		SolverDecompIterations: dec.Solver.DecompIterations,
		SolverDecompGap:        dec.Solver.DecompGap,
		SolverDecompDualBound:  dec.Solver.DecompDualBound,
	}
	if dec.Degraded != core.DegradeNone {
		resp.Degraded = dec.Degraded.String()
	}
	if dec.EnergyCostUSD != 0 || dec.DemandChargeUSD != 0 || dec.SettlementUSD != 0 {
		resp.EnergyCostUSD = dec.EnergyCostUSD
		resp.DemandChargeUSD = dec.DemandChargeUSD
		resp.SettlementUSD = dec.SettlementUSD
	}
	for i, a := range dec.Sites {
		resp.Sites = append(resp.Sites, SiteDecision{
			Site:           s.sites[i].Name,
			Lambda:         a.Lambda,
			PowerMW:        a.PowerMW,
			PriceUSDPerMWh: a.PriceUSDPerMWh,
			CostUSD:        a.CostUSD,
			On:             a.On,

			GridMW:      a.GridMW,
			ChargeMW:    a.ChargeMW,
			DischargeMW: a.DischargeMW,
			EnergyUSD:   a.EnergyUSD,
			DemandUSD:   a.DemandUSD,
		})
	}
	return resp
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req DecideRequest
	if !readJSON(w, r, &req) {
		return
	}
	in := s.hourInputFrom(req)
	// A malformed request is the client's bug even on the resilient path;
	// the ladder's input patching is for feed dropouts, not API misuse.
	if err := s.sys.ValidateInput(in); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS*float64(time.Millisecond)))
		defer cancel()
	}
	var dec core.Decision
	if req.Resilient {
		dec = s.resilient.DecideCtx(ctx, in)
		s.noteRung(dec.Degraded)
	} else {
		var err error
		dec, err = s.sys.DecideHourCtx(ctx, in)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
	}
	// Every decision refreshes the data plane (a shed decision with nothing
	// to route leaves the previous table live).
	s.route.Install(in, dec)
	// A served (non-override) decision is what the sites will do this hour:
	// move the stored energy and ratchet the demand-charge ledger, then
	// record the post-hour ladder and position.
	if err := s.commit(req, in, dec); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.decideResponseFrom(dec))
}

// handleModel dumps the hour's Step-1 MILP in lp_solve-style text, for
// offline inspection with cmd/milpsolve. The request body is a
// DecideRequest, read exactly as /v1/decide reads it (availability, tariff
// fields and the live tariff position included); the response is
// text/plain.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req DecideRequest
	if !readJSON(w, r, &req) {
		return
	}
	in := s.hourInputFrom(req)
	var buf bytes.Buffer
	if err := s.sys.WriteHourModel(&buf, in, in.TotalLambda); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// RealizeRequest is the body of POST /v1/realize.
type RealizeRequest struct {
	Lambdas  []float64 `json:"lambdas"`
	DemandMW []float64 `json:"demandMW"`
}

// SiteRealized is one site's billed outcome.
type SiteRealized struct {
	Site           string  `json:"site"`
	Lambda         float64 `json:"lambda"`
	Servers        int     `json:"servers"`
	PowerMW        float64 `json:"powerMW"`
	RegionLoadMW   float64 `json:"regionLoadMW"`
	PriceUSDPerMWh float64 `json:"priceUSDPerMWh"`
	CostUSD        float64 `json:"costUSD"`
	PenaltyUSD     float64 `json:"penaltyUSD"`
	CapViolated    bool    `json:"capViolated"`
}

// RealizeResponse is the billed ground truth.
type RealizeResponse struct {
	CostUSD       float64        `json:"costUSD"`
	PenaltyUSD    float64        `json:"penaltyUSD"`
	BillUSD       float64        `json:"billUSD"`
	Served        float64        `json:"served"`
	Dropped       float64        `json:"dropped"`
	CapViolations int            `json:"capViolations"`
	Sites         []SiteRealized `json:"sites"`
}

func (s *Server) handleRealize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req RealizeRequest
	if !readJSON(w, r, &req) {
		return
	}
	real, err := s.sys.Realize(req.Lambdas, req.DemandMW)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp := RealizeResponse{
		CostUSD:       real.CostUSD,
		PenaltyUSD:    real.PenaltyUSD,
		BillUSD:       real.BillUSD(),
		Served:        real.ServedLambda,
		Dropped:       real.DroppedLambda,
		CapViolations: real.CapViolations,
	}
	for i, sr := range real.Sites {
		resp.Sites = append(resp.Sites, SiteRealized{
			Site:           s.sites[i].Name,
			Lambda:         sr.Lambda,
			Servers:        sr.Breakdown.Servers,
			PowerMW:        sr.PowerMW,
			RegionLoadMW:   sr.RegionLoadMW,
			PriceUSDPerMWh: sr.PriceUSDPerMWh,
			CostUSD:        sr.CostUSD,
			PenaltyUSD:     sr.PenaltyUSD,
			CapViolated:    sr.CapViolated,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
