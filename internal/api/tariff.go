package api

import (
	"errors"
	"fmt"
	"net/http"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

// EnableTariff reconfigures the server's billing position beyond plain
// energy charges: a demand charge at the given $/MW-month rate (0 disables
// that component) and optional per-site batteries (nil, or one spec per
// site; a zero-capacity spec means no battery at that site). Call it at
// most once, and before EnableState, so a restart restores the peak ledger
// and battery charge into the configured position.
func (s *Server) EnableTariff(demandChargeUSDPerMWMonth float64, batteries []core.BatterySpec) error {
	switch {
	case s.tariffSet:
		return errors.New("api: tariff already enabled")
	case s.journal != nil:
		return errors.New("api: EnableTariff after EnableState would drop the restored position")
	}
	pos, err := controller.New(pricing.Tariff{
		Energy:                    s.policies,
		DemandChargeUSDPerMWMonth: demandChargeUSDPerMWMonth,
	}, batteries)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	s.tariff, s.tariffSet = pos, true
	s.reg.Gauge("billcap_tariff_demand_charge_usd_per_mw_month",
		"Configured demand charge rate.").Set(demandChargeUSDPerMWMonth)
	return nil
}

// withTariff runs f on the billing position under its lock. Concurrent
// /v1/decide requests solve in parallel, but they attach and commit one at
// a time.
func (s *Server) withTariff(f func(*controller.Position)) {
	s.tariffMu.Lock()
	defer s.tariffMu.Unlock()
	f(s.tariff)
}

// publishTariff mirrors the position onto the billcap_tariff_* gauges at
// scrape time: the peak ledger when a demand charge applies, and the charge
// of every battery.
func (s *Server) publishTariff() {
	var peaks []float64
	var bats []core.BatterySpec
	s.withTariff(func(p *controller.Position) { peaks, bats = p.Peaks(), p.Batteries() })
	for i, dc := range s.sites {
		if s.tariff.DemandRate() > 0 {
			s.reg.GaugeVec("billcap_tariff_peak_mw",
				"Billing-period peak metered draw per site (the demand-charge ledger).", "site").
				With(dc.Name).Set(peaks[i])
		}
		if bats != nil && bats[i].CapacityMWh > 0 {
			s.reg.GaugeVec("billcap_tariff_battery_soc_mwh",
				"Battery state of charge per site.", "site").With(dc.Name).Set(bats[i].SoCMWh)
		}
	}
}

// TariffSite is one site's row in GET /v1/tariff.
type TariffSite struct {
	Site   string  `json:"site"`
	PeakMW float64 `json:"peakMW"`
	// Battery fields are zero when the site has no battery.
	BatCapacityMWh float64 `json:"batCapacityMWh,omitempty"`
	BatSoCMWh      float64 `json:"batSoCMWh,omitempty"`
	BatValueUSD    float64 `json:"batValueUSDPerMWh,omitempty"`
}

// TariffResponse is the server's billing position.
type TariffResponse struct {
	DemandChargeUSDPerMWMonth float64      `json:"demandChargeUSDPerMWMonth"`
	DemandChargeSoFarUSD      float64      `json:"demandChargeSoFarUSD"`
	Sites                     []TariffSite `json:"sites"`
}

// handleTariff serves the billing position: the demand-charge ledger and the
// battery bank. The response is built from a copy taken under the lock and
// written after releasing it, so a slow reader never stalls a commit.
func (s *Server) handleTariff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var peaks []float64
	var bats []core.BatterySpec
	s.withTariff(func(p *controller.Position) { peaks, bats = p.Peaks(), p.Batteries() })
	rate := s.tariff.DemandRate()
	resp := TariffResponse{DemandChargeUSDPerMWMonth: rate}
	for i, dc := range s.sites {
		row := TariffSite{Site: dc.Name, PeakMW: peaks[i]}
		if bats != nil {
			row.BatCapacityMWh = bats[i].CapacityMWh
			row.BatSoCMWh = bats[i].SoCMWh
			row.BatValueUSD = bats[i].ValueUSDPerMWh
		}
		resp.Sites = append(resp.Sites, row)
		resp.DemandChargeSoFarUSD += rate * peaks[i]
	}
	writeJSON(w, http.StatusOK, resp)
}
