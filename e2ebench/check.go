package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/sim"
)

// checker verifies capperd's answers from the outside: it knows the site
// caps /v1/sites advertises and the rounding slack dcmodel documents
// (Site.RoundingSlackMW), and nothing of the solver.
type checker struct {
	capMW   []float64
	slackMW []float64
}

func newChecker(sites []api.SiteInfo, dcs []*dcmodel.Site) (*checker, error) {
	if len(sites) != len(dcs) {
		return nil, fmt.Errorf("/v1/sites lists %d sites, the fleet has %d", len(sites), len(dcs))
	}
	c := &checker{capMW: make([]float64, len(sites)), slackMW: make([]float64, len(sites))}
	for i, s := range sites {
		c.capMW[i] = s.PowerCapMW
		c.slackMW[i] = dcs[i].RoundingSlackMW()
	}
	return c, nil
}

// relTol is the tolerance of Σ site λ against the served total.
const relTol = 1e-9

// decide checks one /v1/decide answer for the hour it was asked.
func (c *checker) decide(h hour, status int, body []byte) (api.DecideResponse, error) {
	var r api.DecideResponse
	if status != http.StatusOK {
		return r, fmt.Errorf("decide: status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decide: %w", err)
	}
	if len(r.Sites) != len(c.capMW) {
		return r, fmt.Errorf("decide: %d sites in answer, fleet has %d", len(r.Sites), len(c.capMW))
	}
	sum := 0.0
	for i, s := range r.Sites {
		sum += s.Lambda
		if s.PowerMW > c.capMW[i]+c.slackMW[i] {
			return r, fmt.Errorf("decide: site %d draws %v MW over cap %v + slack %v", i, s.PowerMW, c.capMW[i], c.slackMW[i])
		}
	}
	if math.Abs(sum-r.Served) > relTol*math.Max(math.Abs(r.Served), 1) {
		return r, fmt.Errorf("decide: Σ site λ = %v but served = %v", sum, r.Served)
	}
	if r.Served > h.total*(1+relTol) {
		return r, fmt.Errorf("decide: served %v exceeds arrivals %v", r.Served, h.total)
	}
	if r.Step != core.StepPremiumOnly.String() && r.PredictedCostUSD > h.budgetUSD*(1+1e-6)+1e-6 {
		return r, fmt.Errorf("decide: predicted cost %v over budget %v at step %s", r.PredictedCostUSD, h.budgetUSD, r.Step)
	}
	return r, nil
}

// route checks one /v1/route answer: premium is always admitted, the site
// is in range, and the table is the one the hour's decide just installed.
func (c *checker) route(status int, body []byte, premium bool, hourID int) error {
	if status != http.StatusOK {
		return fmt.Errorf("route: status %d: %.200s", status, body)
	}
	var r api.RouteResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	if premium && !r.Admitted {
		return fmt.Errorf("route: premium request not admitted")
	}
	if r.Admitted && (r.SiteIndex < 0 || r.SiteIndex >= len(c.capMW)) {
		return fmt.Errorf("route: site index %d outside [0, %d)", r.SiteIndex, len(c.capMW))
	}
	if r.Hour != hourID {
		return fmt.Errorf("route: served by hour %d's table, want %d", r.Hour, hourID)
	}
	return nil
}

// checkMonth checks one simulated month, hour by hour: every hour decided,
// no cap violated when caps is set, and, given the run's first month, the
// ledger bit-identical to it. It returns one result per hour of the month.
func checkMonth(res sim.Result, ref *sim.Result, hours int, caps bool) []error {
	errs := make([]error, hours)
	for i := range errs {
		if i >= len(res.Hours) {
			errs[i] = fmt.Errorf("month: hour %d not decided", i)
			continue
		}
		h := res.Hours[i]
		switch {
		case caps && h.CapViolations > 0:
			errs[i] = fmt.Errorf("month: hour %d violates %d caps", h.Hour, h.CapViolations)
		case ref != nil && (h.BillUSD() != ref.Hours[i].BillUSD() || h.ServedPremium != ref.Hours[i].ServedPremium ||
			h.ServedOrdinary != ref.Hours[i].ServedOrdinary || h.Step != ref.Hours[i].Step):
			errs[i] = fmt.Errorf("month: hour %d differs from the run's first month", h.Hour)
		}
	}
	return errs
}
