package pricing

import (
	"math"
	"testing"
)

func paperPols(n int) []Policy {
	pols := make([]Policy, n)
	base := PaperPolicies(Policy1)
	for i := range pols {
		pols[i] = base[i%len(base)]
	}
	return pols
}

// TestPeakLedgerTelescopes pins the demand-charge algebra: the sum of the
// incremental ratchets over any draw sequence equals the final peaks, so
// billing the increments at rate r telescopes to r × monthly peak.
func TestPeakLedgerTelescopes(t *testing.T) {
	l := NewPeakLedger(3)
	seqs := [][]float64{
		{10, 20, 5},
		{8, 25, 5},   // site 1 ratchets
		{15, 10, 30}, // sites 0 and 2 ratchet
		{15, 25, 30}, // exact ties never ratchet
		{1, 1, 1},
	}
	total := 0.0
	for _, g := range seqs {
		total += l.Observe(g)
	}
	sum := 0.0
	for _, p := range l.Peaks() {
		sum += p
	}
	if math.Abs(total-sum) > 1e-12 {
		t.Fatalf("ratchet increments sum to %v, peaks sum to %v", total, sum)
	}
	want := []float64{15, 25, 30}
	for i, w := range want {
		if got := l.Peaks()[i]; got != w {
			t.Errorf("peak[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestPeakLedgerRejectsCorruptDraws pins the guard: NaN, Inf and negative
// draws never move a peak (a corrupt hour must not inflate the month's
// demand charge).
func TestPeakLedgerRejectsCorruptDraws(t *testing.T) {
	l := NewPeakLedger(2)
	l.Observe([]float64{10, 10})
	if raised := l.Observe([]float64{math.NaN(), math.Inf(1)}); raised != 0 {
		t.Errorf("corrupt draws raised the ledger by %v MW", raised)
	}
	if p := l.Peaks(); p[0] != 10 || p[1] != 10 {
		t.Errorf("peaks moved on corrupt draws: %v", l.Peaks())
	}
}

// TestPeakLedgerSnapshotRoundTrip pins persistence: snapshot → restore is
// exact, and a corrupt snapshot is an error, not a half-restore.
func TestPeakLedgerSnapshotRoundTrip(t *testing.T) {
	l := NewPeakLedger(3)
	l.Observe([]float64{12.5, 0, 99.25})
	st := l.Snapshot()

	fresh := NewPeakLedger(3)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i, want := range l.Peaks() {
		if got := fresh.Peaks()[i]; got != want {
			t.Errorf("peak[%d] = %v, want %v", i, got, want)
		}
	}

	before := fresh.Peaks()
	if err := fresh.Restore(PeakState{PeaksMW: []float64{1, math.NaN(), 2}}); err == nil {
		t.Error("NaN peak snapshot accepted")
	}
	for i, p := range fresh.Peaks() {
		if p != before[i] {
			t.Errorf("failed restore mutated the ledger: %v", fresh.Peaks())
		}
	}
}

// TestPeakLedgerRestoreRejectsWrongLength pins that a snapshot taken for a
// different fleet size is an error: a ledger resized by restore would make
// every later hour's peak vector disagree with the site count.
func TestPeakLedgerRestoreRejectsWrongLength(t *testing.T) {
	l := NewPeakLedger(3)
	l.Observe([]float64{5, 6, 7})
	for _, peaks := range [][]float64{{24.97, 1}, {1, 2, 3, 4}, nil} {
		if err := l.Restore(PeakState{PeaksMW: peaks}); err == nil {
			t.Errorf("restored %d peaks into a 3-site ledger", len(peaks))
		}
	}
	if got := l.Peaks(); len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Errorf("failed restores changed the ledger: %v", got)
	}
}

// TestTariffHourBillSpot pins the energy-only degradation: a zero-value
// tariff (no demand rate, no settlement) bills exactly the paper's
// step-policy energy charge.
func TestTariffHourBillSpot(t *testing.T) {
	pols := paperPols(3)
	tar := Tariff{Energy: pols}
	if err := tar.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := []float64{50, 80, 20}
	demand := []float64{100, 120, 90}
	b, err := tar.HourBill(0, grid, demand, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i, g := range grid {
		want += pols[i].Price(demand[i]+g) * g
	}
	if b.DemandUSD != 0 || b.SettlementUSD != 0 {
		t.Errorf("energy-only bill has extras: %+v", b)
	}
	if math.Abs(b.EnergyUSD-want) > 1e-9 || math.Abs(b.TotalUSD()-want) > 1e-9 {
		t.Errorf("energy %v, want %v", b.EnergyUSD, want)
	}
}

// TestTariffHourBillTwoSettlement pins the settlement split: the hour pays
// RT × grid for its metered draw plus the sunk position (DA − RT) × commit,
// which together equal DA·C + RT·(grid − C).
func TestTariffHourBillTwoSettlement(t *testing.T) {
	pols := paperPols(3)
	commit := [][]float64{{120}, {150}, {90}}
	rt := [][]float64{{70}, {40}, {55}}
	tar := Tariff{Energy: pols, Settlement: &TwoSettlement{CommitMW: commit, RTUSDPerMWh: rt}}
	if err := tar.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := []float64{100, 160, 90}
	demand := []float64{100, 120, 90}
	b, err := tar.HourBill(0, grid, demand, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnergy, wantSettle, wantClassic := 0.0, 0.0, 0.0
	for i, g := range grid {
		da := pols[i].Price(demand[i] + commit[i][0])
		wantEnergy += rt[i][0] * g
		wantSettle += (da - rt[i][0]) * commit[i][0]
		wantClassic += da*commit[i][0] + rt[i][0]*(g-commit[i][0])
	}
	if math.Abs(b.EnergyUSD-wantEnergy) > 1e-9 || math.Abs(b.SettlementUSD-wantSettle) > 1e-9 {
		t.Errorf("bill %+v, want energy %v settlement %v", b, wantEnergy, wantSettle)
	}
	if math.Abs(b.TotalUSD()-wantClassic) > 1e-9 {
		t.Errorf("split total %v diverges from DA·C + RT·(g−C) = %v", b.TotalUSD(), wantClassic)
	}

	// Hours past the stored series settle as pure spot.
	b2, err := tar.HourBill(1, grid, demand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b2.SettlementUSD != 0 {
		t.Errorf("hour beyond the series still carries a position: %+v", b2)
	}
}

// TestTariffHourBillDemandCharge pins the incremental demand charge: each
// hour bills rate × ratchet, and the month's demand component telescopes to
// rate × final peaks.
func TestTariffHourBillDemandCharge(t *testing.T) {
	const rate = 1000.0
	pols := paperPols(2)
	tar := Tariff{Energy: pols, DemandChargeUSDPerMWMonth: rate}
	ledger := NewPeakLedger(2)
	demand := []float64{100, 120}

	var total Bill
	for _, grid := range [][]float64{{30, 50}, {40, 45}, {35, 60}} {
		b, err := tar.HourBill(0, grid, demand, ledger)
		if err != nil {
			t.Fatal(err)
		}
		total = total.Add(b)
	}
	wantDemand := rate * (40 + 60)
	if math.Abs(total.DemandUSD-wantDemand) > 1e-9 {
		t.Errorf("month demand charge %v, want rate × final peaks = %v", total.DemandUSD, wantDemand)
	}
}

// TestTariffValidateAndErrors pins input rejection.
func TestTariffValidateAndErrors(t *testing.T) {
	if err := (Tariff{}).Validate(); err == nil {
		t.Error("empty tariff accepted")
	}
	pols := paperPols(3)
	if err := (Tariff{Energy: pols, DemandChargeUSDPerMWMonth: math.NaN()}).Validate(); err == nil {
		t.Error("NaN demand rate accepted")
	}
	if err := (Tariff{Energy: pols, Settlement: &TwoSettlement{RTUSDPerMWh: [][]float64{{-1}}}}).Validate(); err == nil {
		t.Error("negative RT price accepted")
	}
	tar := Tariff{Energy: pols}
	if _, err := tar.HourBill(0, []float64{1, 2}, nil, nil); err == nil {
		t.Error("grid/policy arity mismatch accepted")
	}
	if _, err := tar.HourBill(0, []float64{1, 2, math.NaN()}, nil, nil); err == nil {
		t.Error("NaN grid draw accepted")
	}
}
