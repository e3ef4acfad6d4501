// Package controller holds what the hourly control loop carries from one
// hour to the next: the billing position (the composed tariff, the billing
// period's peak ledger behind its demand charge, and the battery bank),
// and the Journal that records it durably.
//
// The simulator and capperd drive the same Position. Each hour they Attach
// the position to the decider's input, decide, and Commit the decision.
// They differ only in the per-site draw they pass to Commit: the simulator
// passes the realized IT draw, capperd the planned one.
package controller

import (
	"fmt"
	"math"

	"billcap/internal/battery"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

// Position is a fleet's billing position. It is not safe for concurrent
// use; a driver serving concurrent requests serializes its calls.
type Position struct {
	tariff pricing.Tariff
	ledger *pricing.PeakLedger
	// bats holds one battery per site (nil where a site has none); nil
	// when the fleet has no storage.
	bats []*battery.Battery
	// specs are the batteries' static parameters, with the stored-energy
	// value defaulted; SoCMWh is refreshed from bats when read.
	specs []core.BatterySpec
}

// New builds the position for the tariff's sites: an all-zero peak ledger
// and a battery for each spec with non-zero capacity, charged to its
// SoCMWh. batteries is nil or holds one spec per site. A spec whose
// ValueUSDPerMWh is 0 values stored energy at the site's mean LMP, so the
// MILP charges below that price and discharges above it. An energy-only
// fleet's position is New(pricing.Tariff{Energy: policies}, nil).
func New(t pricing.Tariff, batteries []core.BatterySpec) (*Position, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := len(t.Energy)
	if len(batteries) != 0 && len(batteries) != n {
		return nil, fmt.Errorf("controller: %d battery specs for %d sites", len(batteries), n)
	}
	p := &Position{tariff: t, ledger: pricing.NewPeakLedger(n)}
	if len(batteries) == 0 {
		return p, nil
	}
	p.bats = make([]*battery.Battery, n)
	p.specs = make([]core.BatterySpec, n)
	for i, spec := range batteries {
		if spec.CapacityMWh == 0 {
			continue // explicit "no battery at this site"
		}
		b, err := battery.New(spec.CapacityMWh, spec.MaxChargeMW, spec.MaxDischargeMW, spec.Efficiency)
		if err != nil {
			return nil, fmt.Errorf("controller: site %d battery: %w", i, err)
		}
		b.SetSoC(spec.SoCMWh)
		if spec.ValueUSDPerMWh == 0 {
			spec.ValueUSDPerMWh = t.Energy[i].Fn.Mean()
		}
		p.bats[i] = b
		p.specs[i] = spec
	}
	return p, nil
}

// DemandRate returns the demand charge in $/MW-month (0 = none).
func (p *Position) DemandRate() float64 { return p.tariff.DemandChargeUSDPerMWMonth }

// Peaks returns a copy of each site's billing-period peak metered draw.
func (p *Position) Peaks() []float64 { return p.ledger.Peaks() }

// Batteries returns each site's battery spec at its current state of
// charge (a zero spec where a site has none), or nil without storage.
func (p *Position) Batteries() []core.BatterySpec {
	if p.bats == nil {
		return nil
	}
	out := make([]core.BatterySpec, len(p.specs))
	copy(out, p.specs)
	for i, b := range p.bats {
		if b != nil {
			out[i].SoCMWh = b.SoC()
		}
	}
	return out
}

// Attach fills the tariff fields that the hour input leaves empty: the
// demand-charge rate, the peak-so-far ledger when a demand charge applies,
// the batteries at their current charge and, under two-settlement, the
// hour's real-time prices and day-ahead commitments. Fields the caller set
// stay untouched, so a what-if request can override the position.
func (p *Position) Attach(in *core.HourInput) {
	rate := p.DemandRate()
	if in.DemandChargeUSDPerMW == 0 {
		in.DemandChargeUSDPerMW = rate
	}
	if in.PeakMW == nil && rate > 0 {
		in.PeakMW = p.Peaks()
	}
	if in.Batteries == nil {
		in.Batteries = p.Batteries()
	}
	ts := p.tariff.Settlement
	if ts == nil {
		return
	}
	n := len(p.tariff.Energy)
	rt, cm := make([]float64, n), make([]float64, n)
	for i := range rt {
		cm[i], rt[i], _ = ts.Hour(i, in.Hour)
	}
	if in.RTPriceUSDPerMWh == nil {
		in.RTPriceUSDPerMWh = rt
	}
	if in.CommitMW == nil {
		in.CommitMW = cm
	}
}

// Commit settles one served hour. drawMW is each site's IT draw and
// demandMW the regions' background demand that energy prices are read at.
// The decision's planned battery actions run first: discharge is clamped
// to the site's draw (no export) and to the stored energy, charge to the
// battery's rate and headroom, and down sites move no energy. The metered
// grid draw that results is then billed through Tariff.HourBill, which
// ratchets the peak ledger under a demand charge. Commit returns the
// metered draw and the bill; a malformed draw is an error that leaves the
// position untouched.
func (p *Position) Commit(in core.HourInput, dec core.Decision, drawMW, demandMW []float64) ([]float64, pricing.Bill, error) {
	if len(drawMW) != len(p.tariff.Energy) {
		return nil, pricing.Bill{}, fmt.Errorf("controller: %d draws for %d sites", len(drawMW), len(p.tariff.Energy))
	}
	for i, d := range drawMW {
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return nil, pricing.Bill{}, fmt.Errorf("controller: draw %v MW at site %d", d, i)
		}
	}
	grid := make([]float64, len(drawMW))
	for i, d := range drawMW {
		var c, g float64
		if i < len(p.bats) && p.bats[i] != nil && i < len(dec.Sites) && !in.SiteDown(i) {
			plan := dec.Sites[i]
			g = p.bats[i].Discharge(math.Min(plan.DischargeMW, d))
			c = p.bats[i].Charge(plan.ChargeMW)
		}
		grid[i] = d + c - g
	}
	bill, err := p.tariff.HourBill(in.Hour, grid, demandMW, p.ledger)
	return grid, bill, err
}

// Stateful reports whether a commit can move the persistent part of the
// position: the peak ledger behind a demand charge, or a battery's charge.
func (p *Position) Stateful() bool { return p.DemandRate() > 0 || p.bats != nil }

// Snapshot returns the position's persistent part as it rides state.Entry
// and state.Checkpoint: the peak ledger (nil without a demand charge, when
// the ledger cannot move) and each site's battery charge (nil without
// storage).
func (p *Position) Snapshot() (*pricing.PeakState, []float64) {
	var ps *pricing.PeakState
	if p.DemandRate() > 0 {
		st := p.ledger.Snapshot()
		ps = &st
	}
	var socs []float64
	if p.bats != nil {
		socs = make([]float64, len(p.bats))
		for i, b := range p.bats {
			if b != nil {
				socs[i] = b.SoC()
			}
		}
	}
	return ps, socs
}

// Restore folds a recovered snapshot back into the position; a nil part
// is left as it is. A peak or charge vector whose length is not the site
// count is an error, as is a corrupt peak, and an error restores nothing.
func (p *Position) Restore(peaks *pricing.PeakState, socMWh []float64) error {
	if n := len(p.tariff.Energy); socMWh != nil && len(socMWh) != n {
		return fmt.Errorf("controller: restored %d battery states for %d sites", len(socMWh), n)
	}
	if peaks != nil {
		if err := p.ledger.Restore(*peaks); err != nil {
			return err
		}
	}
	if socMWh != nil {
		for i, b := range p.bats {
			if b != nil {
				b.SetSoC(socMWh[i])
			}
		}
	}
	return nil
}
