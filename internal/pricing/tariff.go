// Tariff engine: the bill as the *sum of tariff components* rather than the
// paper's energy-only LMP charge. Three components compose (ROADMAP item 1,
// after Xu & Li's demand-charge model and Figini & Paolone's two-settlement
// market participation):
//
//   - Energy: the existing locational step policies (price-maker aware).
//   - Demand charge: peak-MW × $/MW-month over the billing period, tracked
//     as a monotone peak-so-far ledger so each hour can be billed
//     *incrementally* — the hour pays only for the MW by which it raises the
//     billing-period peak, and the increments telescope to rate × final
//     peak. That incremental form is what keeps hour decisions separable in
//     the MILP.
//   - Two-settlement: a day-ahead commitment C settled at the DA price (the
//     step policy evaluated at the committed load) plus the real-time
//     deviation (grid − C) settled at an exogenous RT price. Rearranged as
//     RT·grid + (DA − RT)·C, the second term is a sunk position independent
//     of the hour's dispatch — the optimizer only sees the linear RT·grid.
package pricing

import (
	"fmt"
	"math"
)

// Bill is one billing interval's cost, decomposed by tariff component.
type Bill struct {
	// EnergyUSD is the metered energy charge: step price × grid draw under
	// spot settlement, RT price × grid draw under two-settlement.
	EnergyUSD float64
	// DemandUSD is the billing-period demand charge accrued this interval:
	// the demand rate × the MW by which the interval raised the period peak.
	DemandUSD float64
	// SettlementUSD is the two-settlement position (DA − RT)·C, summed over
	// sites. It can be negative (the commitment was cheaper than real time)
	// and is zero under spot settlement.
	SettlementUSD float64
}

// TotalUSD sums the components.
func (b Bill) TotalUSD() float64 { return b.EnergyUSD + b.DemandUSD + b.SettlementUSD }

// Add returns the componentwise sum.
func (b Bill) Add(o Bill) Bill {
	return Bill{
		EnergyUSD:     b.EnergyUSD + o.EnergyUSD,
		DemandUSD:     b.DemandUSD + o.DemandUSD,
		SettlementUSD: b.SettlementUSD + o.SettlementUSD,
	}
}

// TwoSettlement holds a billing period's day-ahead commitments and real-time
// prices, per site per hour. Index arithmetic is zero-safe: hours or sites
// beyond the stored series settle as pure spot (commit 0 at the energy
// policy's price).
type TwoSettlement struct {
	// CommitMW[site][hour] is the day-ahead committed grid draw in MW.
	CommitMW [][]float64
	// RTUSDPerMWh[site][hour] is the real-time price deviations settle at.
	RTUSDPerMWh [][]float64
}

// Hour returns site i's commitment and RT price for the hour, and whether a
// real-time price exists for it (false = settle that site-hour as spot).
func (ts *TwoSettlement) Hour(site, hour int) (commitMW, rtUSDPerMWh float64, ok bool) {
	if ts == nil || site < 0 || hour < 0 || site >= len(ts.RTUSDPerMWh) || hour >= len(ts.RTUSDPerMWh[site]) {
		return 0, 0, false
	}
	rtUSDPerMWh = ts.RTUSDPerMWh[site][hour]
	if site < len(ts.CommitMW) && hour < len(ts.CommitMW[site]) {
		commitMW = ts.CommitMW[site][hour]
	}
	return commitMW, rtUSDPerMWh, true
}

// Validate reports the first malformed series entry.
func (ts *TwoSettlement) Validate() error {
	if ts == nil {
		return nil
	}
	for i, row := range ts.RTUSDPerMWh {
		for h, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("pricing: two-settlement RT price %v at site %d hour %d", v, i, h)
			}
		}
	}
	for i, row := range ts.CommitMW {
		for h, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("pricing: two-settlement commitment %v MW at site %d hour %d", v, i, h)
			}
		}
	}
	return nil
}

// Tariff composes a fleet's bill from up to three components. The zero value
// of the optional components degrades gracefully to the paper's energy-only
// bill: no demand rate, no settlement.
type Tariff struct {
	// Energy is the per-site locational pricing policy (same order as the
	// fleet's sites).
	Energy []Policy
	// DemandChargeUSDPerMWMonth is the billing-period demand charge rate
	// applied to each site's peak grid draw; 0 disables the component.
	DemandChargeUSDPerMWMonth float64
	// Settlement switches energy billing from spot to two-settlement; nil
	// keeps spot.
	Settlement *TwoSettlement
}

// Validate reports the first problem with the tariff.
func (t Tariff) Validate() error {
	if len(t.Energy) == 0 {
		return fmt.Errorf("pricing: tariff has no energy policies")
	}
	if r := t.DemandChargeUSDPerMWMonth; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("pricing: demand charge rate %v", r)
	}
	return t.Settlement.Validate()
}

// HourBill prices one hour of realized per-site grid draws against the
// tariff, ratcheting the peak ledger (nil ledger or zero demand rate skips
// the demand component). gridMW and demandMW are indexed like Energy.
func (t Tariff) HourBill(hour int, gridMW, demandMW []float64, ledger *PeakLedger) (Bill, error) {
	if len(gridMW) != len(t.Energy) {
		return Bill{}, fmt.Errorf("pricing: %d grid draws for %d energy policies", len(gridMW), len(t.Energy))
	}
	var b Bill
	for i, g := range gridMW {
		if math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
			return Bill{}, fmt.Errorf("pricing: grid draw %v MW at site %d", g, i)
		}
		d := 0.0
		if i < len(demandMW) {
			d = demandMW[i]
		}
		if c, rt, ok := t.Settlement.Hour(i, hour); ok {
			// DA·C + RT·(grid − C), split as RT·grid (energy) + (DA−RT)·C
			// (settlement position).
			da := t.Energy[i].Price(d + c)
			b.EnergyUSD += rt * g
			b.SettlementUSD += (da - rt) * c
		} else {
			b.EnergyUSD += t.Energy[i].Price(d+g) * g
		}
	}
	if t.DemandChargeUSDPerMWMonth > 0 && ledger != nil {
		b.DemandUSD = t.DemandChargeUSDPerMWMonth * ledger.Observe(gridMW)
	}
	return b, nil
}

// PeakLedger tracks each site's peak-so-far grid draw across a billing
// period. It only ratchets upward; Observe returns the total MW of ratchet so
// the caller can bill the increment. Persisted alongside the budget ledger so
// a mid-month restart resumes the demand charge bit-for-bit.
type PeakLedger struct {
	peaks []float64
}

// NewPeakLedger returns a fresh ledger for n sites (all peaks zero).
func NewPeakLedger(n int) *PeakLedger {
	return &PeakLedger{peaks: make([]float64, n)}
}

// Peaks returns a copy of the per-site peaks.
func (l *PeakLedger) Peaks() []float64 {
	return append([]float64(nil), l.peaks...)
}

// Observe ratchets the ledger with one hour's grid draws and returns the
// total MW by which peaks rose. Non-finite or negative draws never move a
// peak (a corrupt hour must not inflate the month's demand charge).
func (l *PeakLedger) Observe(gridMW []float64) (raisedMW float64) {
	for i, g := range gridMW {
		if i >= len(l.peaks) {
			break
		}
		if math.IsNaN(g) || math.IsInf(g, 0) || g <= l.peaks[i] {
			continue
		}
		raisedMW += g - l.peaks[i]
		l.peaks[i] = g
	}
	return raisedMW
}

// PeakState is the ledger's serializable snapshot.
type PeakState struct {
	PeaksMW []float64 `json:"peaksMW"`
}

// Snapshot captures the ledger for persistence.
func (l *PeakLedger) Snapshot() PeakState {
	return PeakState{PeaksMW: l.Peaks()}
}

// Restore replaces the ledger's contents with a snapshot, validating it the
// way budget.Budgeter.Restore validates its state: a corrupt snapshot, or one
// for a different number of sites, is an error, not a silent half-restore.
func (l *PeakLedger) Restore(st PeakState) error {
	if len(st.PeaksMW) != len(l.peaks) {
		return fmt.Errorf("pricing: peak snapshot has %d sites, ledger has %d", len(st.PeaksMW), len(l.peaks))
	}
	for i, p := range st.PeaksMW {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("pricing: peak snapshot has peak %v MW at site %d", p, i)
		}
	}
	copy(l.peaks, st.PeaksMW)
	return nil
}
