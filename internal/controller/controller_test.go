package controller

import (
	"math"
	"reflect"
	"testing"

	"billcap/internal/core"
	"billcap/internal/pricing"
)

var testSpec = core.BatterySpec{CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15, Efficiency: 0.9, SoCMWh: 20}

// newTestPosition builds a 3-site position with batteries at sites 0 and 1
// and none at site 2.
func newTestPosition(t *testing.T, rate float64) *Position {
	t.Helper()
	p, err := New(pricing.Tariff{
		Energy:                    pricing.PaperPolicies(pricing.Policy1),
		DemandChargeUSDPerMWMonth: rate,
	}, []core.BatterySpec{testSpec, testSpec, {}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func socs(p *Position) []float64 {
	_, s := p.Snapshot()
	return s
}

// TestCommitClampsBatteryActions pins the physics of a commit: discharge
// never exceeds the site's draw (no export), charge is capped by the rate
// and then by the headroom, a site without a battery meters its draw, and
// the peak ledger ratchets on the metered draw.
func TestCommitClampsBatteryActions(t *testing.T) {
	p := newTestPosition(t, 1000)
	dec := core.Decision{Sites: []core.SiteAlloc{
		{DischargeMW: 15},
		{ChargeMW: 30},
		{ChargeMW: 5, DischargeMW: 5},
	}}
	draw := []float64{4, 10, 12}
	grid, bill, err := p.Commit(core.HourInput{}, dec, draw, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 discharges only its 4 MW draw; site 1 charges at its 15 MW rate.
	if want := []float64{0, 25, 12}; !reflect.DeepEqual(grid, want) {
		t.Errorf("grid = %v, want %v", grid, want)
	}
	if want := []float64{16, 20 + 15*0.9, 0}; !reflect.DeepEqual(socs(p), want) {
		t.Errorf("SoC = %v, want %v", socs(p), want)
	}
	if want := 1000 * (25.0 + 12); bill.DemandUSD != want {
		t.Errorf("demand charge %v, want %v", bill.DemandUSD, want)
	}
	if !reflect.DeepEqual(p.Peaks(), grid) {
		t.Errorf("peaks %v, want the metered draw %v", p.Peaks(), grid)
	}

	// 6.5 MWh of headroom left at site 1: charge stops at 6.5/0.9 MW.
	grid, _, err = p.Commit(core.HourInput{Hour: 1}, dec, draw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 + 6.5/0.9; math.Abs(grid[1]-want) > 1e-12 {
		t.Errorf("site 1 grid %v, want %v", grid[1], want)
	}
	if got := socs(p)[1]; math.Abs(got-40) > 1e-12 {
		t.Errorf("site 1 SoC %v, want full", got)
	}
}

// TestCommitDownSitesMoveNoEnergy pins that a site the hour marks down
// neither charges nor discharges, whatever the decision planned.
func TestCommitDownSitesMoveNoEnergy(t *testing.T) {
	p := newTestPosition(t, 0)
	dec := core.Decision{Sites: []core.SiteAlloc{{DischargeMW: 15}, {ChargeMW: 15}, {}}}
	in := core.HourInput{Down: []bool{true, true, false}}
	grid, _, err := p.Commit(in, dec, []float64{10, 10, 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{10, 10, 10}; !reflect.DeepEqual(grid, want) {
		t.Errorf("grid = %v, want the bare draw %v", grid, want)
	}
	if want := []float64{20, 20, 0}; !reflect.DeepEqual(socs(p), want) {
		t.Errorf("down sites moved energy: SoC %v", socs(p))
	}
}

// TestCommitRejectsBadDrawUntouched pins that a malformed draw is an error
// and moves neither a battery nor the ledger.
func TestCommitRejectsBadDrawUntouched(t *testing.T) {
	p := newTestPosition(t, 1000)
	dec := core.Decision{Sites: []core.SiteAlloc{{DischargeMW: 15}, {ChargeMW: 15}, {}}}
	for _, draw := range [][]float64{{10, 10}, {10, math.NaN(), 10}, {10, 10, -1}} {
		if _, _, err := p.Commit(core.HourInput{}, dec, draw, nil); err == nil {
			t.Errorf("draw %v accepted", draw)
		}
	}
	if !reflect.DeepEqual(socs(p), []float64{20, 20, 0}) || !reflect.DeepEqual(p.Peaks(), []float64{0, 0, 0}) {
		t.Errorf("rejected commits moved the position: SoC %v peaks %v", socs(p), p.Peaks())
	}
}

// TestNewDefaultsStoredEnergyValue pins ν: a spec without a value of stored
// energy takes its site's mean LMP, an explicit one is kept.
func TestNewDefaultsStoredEnergyValue(t *testing.T) {
	pols := pricing.PaperPolicies(pricing.Policy1)
	priced := testSpec
	priced.ValueUSDPerMWh = 99
	p, err := New(pricing.Tariff{Energy: pols}, []core.BatterySpec{testSpec, priced, {}})
	if err != nil {
		t.Fatal(err)
	}
	bats := p.Batteries()
	if got, want := bats[0].ValueUSDPerMWh, pols[0].Fn.Mean(); got != want || want == 0 {
		t.Errorf("site 0 ν = %v, want the policy mean %v", got, want)
	}
	if bats[1].ValueUSDPerMWh != 99 {
		t.Errorf("site 1 ν = %v, want the explicit 99", bats[1].ValueUSDPerMWh)
	}
	if bats[2] != (core.BatterySpec{}) {
		t.Errorf("site 2 has no battery but reports %+v", bats[2])
	}
	if _, err := New(pricing.Tariff{Energy: pols}, []core.BatterySpec{testSpec}); err == nil {
		t.Error("1 battery spec for 3 sites accepted")
	}
}

// TestAttach pins which fields Attach fills: every tariff field an input
// leaves empty, and none the caller set.
func TestAttach(t *testing.T) {
	pols := pricing.PaperPolicies(pricing.Policy1)
	ts := &pricing.TwoSettlement{
		CommitMW:    [][]float64{{1, 2}, {3, 4}, {5, 6}},
		RTUSDPerMWh: [][]float64{{10, 20}, {30, 40}, {50, 60}},
	}
	p, err := New(pricing.Tariff{Energy: pols, DemandChargeUSDPerMWMonth: 1500, Settlement: ts},
		[]core.BatterySpec{testSpec, testSpec, testSpec})
	if err != nil {
		t.Fatal(err)
	}

	in := core.HourInput{Hour: 1}
	p.Attach(&in)
	if in.DemandChargeUSDPerMW != 1500 || !reflect.DeepEqual(in.PeakMW, []float64{0, 0, 0}) {
		t.Errorf("demand charge %v, peaks %v", in.DemandChargeUSDPerMW, in.PeakMW)
	}
	if !reflect.DeepEqual(in.RTPriceUSDPerMWh, []float64{20, 40, 60}) || !reflect.DeepEqual(in.CommitMW, []float64{2, 4, 6}) {
		t.Errorf("hour 1 market position: RT %v, commit %v", in.RTPriceUSDPerMWh, in.CommitMW)
	}
	if len(in.Batteries) != 3 || in.Batteries[0].SoCMWh != 20 {
		t.Errorf("batteries %+v", in.Batteries)
	}

	set := core.HourInput{
		Hour:                 1,
		DemandChargeUSDPerMW: 7,
		PeakMW:               []float64{1, 2, 3},
		RTPriceUSDPerMWh:     []float64{4, 5, 6},
		CommitMW:             []float64{7, 8, 9},
		Batteries:            []core.BatterySpec{{}, {}, {}},
	}
	got := set
	p.Attach(&got)
	if !reflect.DeepEqual(got, set) {
		t.Errorf("Attach overwrote caller fields: %+v", got)
	}
	if &got.PeakMW[0] != &set.PeakMW[0] || &got.Batteries[0] != &set.Batteries[0] {
		t.Error("Attach replaced a caller slice")
	}

	plain := newTestPosition(t, 0)
	var bare core.HourInput
	plain.Attach(&bare)
	if bare.PeakMW != nil || bare.RTPriceUSDPerMWh != nil || bare.CommitMW != nil {
		t.Errorf("no demand charge or settlement, yet Attach filled %+v", bare)
	}
}

// TestSnapshotRestoreRoundTrip pins persistence: a restored position
// snapshots bit for bit like the one it was taken from, and a vector of the
// wrong length is an error that restores nothing.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := newTestPosition(t, 1000)
	dec := core.Decision{Sites: []core.SiteAlloc{{DischargeMW: 3.3}, {ChargeMW: 7.1}, {}}}
	for h := 0; h < 3; h++ {
		if _, _, err := p.Commit(core.HourInput{Hour: h}, dec, []float64{12.7, 9.9 + float64(h), 0.1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	peaks, soc := p.Snapshot()

	q := newTestPosition(t, 1000)
	if err := q.Restore(peaks, soc); err != nil {
		t.Fatal(err)
	}
	qPeaks, qSoC := q.Snapshot()
	for i := range soc {
		if math.Float64bits(qSoC[i]) != math.Float64bits(soc[i]) ||
			math.Float64bits(qPeaks.PeaksMW[i]) != math.Float64bits(peaks.PeaksMW[i]) {
			t.Errorf("site %d: restored SoC %v peak %v, want %v %v", i, qSoC[i], qPeaks.PeaksMW[i], soc[i], peaks.PeaksMW[i])
		}
	}

	r := newTestPosition(t, 1000)
	if err := r.Restore(&pricing.PeakState{PeaksMW: []float64{1, 2}}, nil); err == nil {
		t.Error("2 peaks restored into 3 sites")
	}
	if err := r.Restore(peaks, []float64{1, 2}); err == nil {
		t.Error("2 battery states restored into 3 sites")
	}
	if !reflect.DeepEqual(r.Peaks(), []float64{0, 0, 0}) || !reflect.DeepEqual(socs(r), []float64{20, 20, 0}) {
		t.Errorf("failed restores changed the position: peaks %v SoC %v", r.Peaks(), socs(r))
	}
}
