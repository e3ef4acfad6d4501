package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// testBatteries gives every paper site a battery that starts half charged.
func testBatteries(n int) []core.BatterySpec {
	specs := make([]core.BatterySpec, n)
	for i := range specs {
		specs[i] = core.BatterySpec{
			CapacityMWh:    40,
			MaxChargeMW:    15,
			MaxDischargeMW: 15,
			Efficiency:     0.9,
			SoCMWh:         20,
		}
	}
	return specs
}

func TestTariffConfigValidate(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.DemandChargeUSDPerMWMonth = -1 },
		func(c *Config) { c.DemandChargeUSDPerMWMonth = math.NaN() },
		func(c *Config) { c.Batteries = testBatteries(2) },
	}
	for i, mut := range mutations {
		cfg := mustScenario(t, Uncapped(), 1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestEnergyOnlyBillIsRealize pins that an energy-only month, billed
// through its position like any tariff, charges bit for bit what
// core.Realize charges: price × IT draw per site, and the cap penalties on
// the same draw. The meter reads the IT draw, and EnergyUSD is the whole
// charge.
func TestEnergyOnlyBillIsRealize(t *testing.T) {
	cfg := mustScenario(t, TightBudget(), 1)
	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.NewSystem(cfg.DCs, cfg.Policies, core.Options{Scope: dcmodel.FullPower, PriceView: core.ViewLMP})
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]float64, len(cfg.DCs))
	for _, h := range res.Hours {
		for i := range demand {
			demand[i] = cfg.Demand[i].At(h.Hour)
		}
		real, err := truth.Realize(h.SiteLambda, demand)
		if err != nil {
			t.Fatal(err)
		}
		if h.CostUSD != real.CostUSD || h.EnergyUSD != real.CostUSD || h.PenaltyUSD != real.PenaltyUSD ||
			h.CapViolations != real.CapViolations || !reflect.DeepEqual(h.SiteGridMW, h.SitePowerMW) {
			t.Fatalf("hour %d: billed %v (energy %v, penalty %v, grid %v), Realize %v (penalty %v, draw %v)",
				h.Hour, h.CostUSD, h.EnergyUSD, h.PenaltyUSD, h.SiteGridMW, real.CostUSD, real.PenaltyUSD, h.SitePowerMW)
		}
	}
	for i, p := range res.PeakMW {
		if p != 0 {
			t.Errorf("site %d: peak ledger %v without a demand charge", i, p)
		}
	}
}

// TestTariffGoldenWeek is the satellite golden test: on a seeded week with a
// demand charge and two-settlement active, the realized bill decomposes into
// energy/demand/settlement exactly, the demand-charge increments telescope to
// rate × final peak, the peak ledger equals the observed maxima, and the
// whole run is deterministic.
func TestTariffGoldenWeek(t *testing.T) {
	cfg := mustScenario(t, Uncapped(), 1)
	cfg.DemandChargeUSDPerMWMonth = 800
	cfg.TwoSettlement = true
	cfg.RTSeed = 7

	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	sumDemand, sumEnergy, sumSettle := 0.0, 0.0, 0.0
	peaks := make([]float64, len(cfg.DCs))
	for _, h := range res.Hours {
		if got, want := h.CostUSD, h.EnergyUSD+h.DemandUSD+h.SettlementUSD; math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("hour %d: CostUSD %v != energy %v + demand %v + settlement %v",
				h.Hour, got, h.EnergyUSD, h.DemandUSD, h.SettlementUSD)
		}
		if h.SiteGridMW == nil {
			t.Fatalf("hour %d: no metered grid draw recorded", h.Hour)
		}
		for i, g := range h.SiteGridMW {
			// No batteries configured: the meter reads the IT draw.
			if math.Abs(g-h.SitePowerMW[i]) > 1e-12 {
				t.Fatalf("hour %d site %d: grid %v != power %v without a battery", h.Hour, i, g, h.SitePowerMW[i])
			}
			peaks[i] = math.Max(peaks[i], g)
		}
		sumDemand += h.DemandUSD
		sumEnergy += h.EnergyUSD
		sumSettle += h.SettlementUSD
	}

	// Telescoping: Σ hourly demand increments = rate × Σ final peaks.
	wantDemand := 0.0
	for i, p := range res.PeakMW {
		if math.Abs(p-peaks[i]) > 1e-9 {
			t.Errorf("site %d final peak %v, observed max draw %v", i, p, peaks[i])
		}
		wantDemand += cfg.DemandChargeUSDPerMWMonth * p
	}
	if math.Abs(sumDemand-wantDemand) > 1e-6*(1+wantDemand) {
		t.Errorf("demand charges %v do not telescope to rate × peak %v", sumDemand, wantDemand)
	}
	if math.Abs(res.TotalDemandUSD-sumDemand) > 1e-9 ||
		math.Abs(res.TotalEnergyUSD-sumEnergy) > 1e-9 ||
		math.Abs(res.TotalSettlementUSD-sumSettle) > 1e-9 {
		t.Errorf("result totals (%v,%v,%v) disagree with hourly sums (%v,%v,%v)",
			res.TotalEnergyUSD, res.TotalDemandUSD, res.TotalSettlementUSD,
			sumEnergy, sumDemand, sumSettle)
	}
	if math.Abs(res.TotalCostUSD-(sumEnergy+sumDemand+sumSettle)) > 1e-6 {
		t.Errorf("TotalCostUSD %v != component sum %v", res.TotalCostUSD, sumEnergy+sumDemand+sumSettle)
	}

	// The seeded RT stream and forecast commitments are deterministic: a
	// second run must reproduce the bill bit-for-bit.
	again, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalCostUSD != res.TotalCostUSD || again.TotalSettlementUSD != res.TotalSettlementUSD {
		t.Errorf("re-run bill %v/%v differs from %v/%v",
			again.TotalCostUSD, again.TotalSettlementUSD, res.TotalCostUSD, res.TotalSettlementUSD)
	}
}

// TestTariffSpotEnergyRederives checks the spot-market energy component
// against hand arithmetic: with a demand charge but no two-settlement, each
// hour's energy charge is Σ Price(demand + grid) × grid over the true
// background demand.
func TestTariffSpotEnergyRederives(t *testing.T) {
	cfg := mustScenario(t, Uncapped(), 1)
	cfg.DemandChargeUSDPerMWMonth = 500

	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hours {
		want := 0.0
		for i, g := range h.SiteGridMW {
			want += cfg.Policies[i].Price(cfg.Demand[i].At(h.Hour)+g) * g
		}
		if math.Abs(h.EnergyUSD-want) > 1e-9*(1+want) {
			t.Fatalf("hour %d: energy %v, re-derived %v", h.Hour, h.EnergyUSD, want)
		}
	}
}

// TestTariffAwareBeatsBlind is the acceptance criterion at sim level: under
// a demand charge with per-site batteries, the tariff-aware MILP's total
// bill is at or below the energy-only-aware dispatch billed under the same
// tariff.
func TestTariffAwareBeatsBlind(t *testing.T) {
	cfg := mustScenario(t, Uncapped(), 2)
	cfg.DemandChargeUSDPerMWMonth = 1500
	cfg.Batteries = testBatteries(len(cfg.DCs))

	aware, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Run(cfg, TariffBlind(mustCapping(t, cfg)))
	if err != nil {
		t.Fatal(err)
	}
	if aware.TotalBillUSD() > blind.TotalBillUSD()+1e-6 {
		t.Errorf("tariff-aware bill $%.2f exceeds tariff-blind $%.2f",
			aware.TotalBillUSD(), blind.TotalBillUSD())
	}
	discharged := false
	for _, h := range aware.Hours {
		for i, g := range h.SiteGridMW {
			if g < h.SitePowerMW[i]-1e-9 {
				discharged = true
			}
		}
	}
	if !discharged {
		t.Error("tariff-aware run never served load from storage")
	}
}

// TestTariffMonthWithBatteryAndDemandCharge is the satellite month soak
// (run with -race in CI): a full four-week month with batteries, a demand
// charge and two-settlement, under a finite budget, must complete with a
// consistent bill decomposition and a respected cap.
func TestTariffMonthWithBatteryAndDemandCharge(t *testing.T) {
	if testing.Short() {
		t.Skip("month-long tariff sim")
	}
	cfg := mustScenario(t, 700_000, 4)
	cfg.DemandChargeUSDPerMWMonth = 1000
	cfg.Batteries = testBatteries(len(cfg.DCs))
	cfg.TwoSettlement = true
	cfg.RTSeed = 20260808

	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Hours); got != cfg.Month.Len() {
		t.Fatalf("decided %d of %d hours", got, cfg.Month.Len())
	}
	if math.Abs(res.TotalCostUSD-(res.TotalEnergyUSD+res.TotalDemandUSD+res.TotalSettlementUSD)) > 1e-6 {
		t.Errorf("bill %v does not decompose into %v + %v + %v", res.TotalCostUSD,
			res.TotalEnergyUSD, res.TotalDemandUSD, res.TotalSettlementUSD)
	}
	if res.TotalDemandUSD <= 0 {
		t.Error("month with a demand charge billed no demand component")
	}
	if res.PremiumServiceRate() < 1-1e-9 {
		t.Errorf("premium service rate %v under a sufficient budget", res.PremiumServiceRate())
	}
	for _, h := range res.Hours {
		for i, soc := range h.SiteSoCMWh {
			if !(soc >= -1e-9 && soc <= cfg.Batteries[i].CapacityMWh+1e-9) {
				t.Fatalf("hour %d site %d: SoC %v outside [0, %v]", h.Hour, i, soc, cfg.Batteries[i].CapacityMWh)
			}
		}
	}
}

// TestChaosSoakTariffLedger extends the crash-restart soak to the tariff
// state: a SIGKILL mid-month must preserve the peak-so-far demand-charge
// ledger and the battery state of charge bit-for-bit, so the stitched month
// bills exactly what an uncrashed month would.
func TestChaosSoakTariffLedger(t *testing.T) {
	cfg, err := ShortScenario(pricing.Policy1, TightBudget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DemandChargeUSDPerMWMonth = 1200
	cfg.Batteries = testBatteries(len(cfg.DCs))
	cfg.TwoSettlement = true
	cfg.RTSeed = 99
	hours := cfg.Month.Len()

	ref, err := Run(cfg, resilientDecider(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	crashed := cfg
	crashed.StateDir = t.TempDir()
	crashed.HaltAfterHours = hours/2 + 5 // off the snapshot boundary: forces WAL replay
	res1, err := Run(crashed, resilientDecider(t, crashed))
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}

	resumed := crashed
	resumed.HaltAfterHours = 0
	res2, err := Run(resumed, resilientDecider(t, resumed))
	if err != nil {
		t.Fatal(err)
	}
	if res2.StartHour != crashed.HaltAfterHours {
		t.Fatalf("resumed at hour %d, want %d", res2.StartHour, crashed.HaltAfterHours)
	}

	// Peak ledger bit-for-bit: the resumed run's final peaks must equal the
	// uncrashed month's exactly — no tolerance. A lost ledger would restart
	// the ratchet at zero and re-bill demand charges the month already paid.
	if len(res2.PeakMW) != len(ref.PeakMW) {
		t.Fatalf("resumed run has %d peaks, reference %d", len(res2.PeakMW), len(ref.PeakMW))
	}
	for i := range ref.PeakMW {
		if res2.PeakMW[i] != ref.PeakMW[i] {
			t.Errorf("site %d peak %v after crash, uncrashed %v", i, res2.PeakMW[i], ref.PeakMW[i])
		}
	}

	// The stitched bill equals the uncrashed bill, component by component.
	stitchDemand := res1.TotalDemandUSD + res2.TotalDemandUSD
	if math.Abs(stitchDemand-ref.TotalDemandUSD) > 1e-9*(1+ref.TotalDemandUSD) {
		t.Errorf("stitched demand charges %v, uncrashed %v", stitchDemand, ref.TotalDemandUSD)
	}
	stitchBill := res1.TotalBillUSD() + res2.TotalBillUSD()
	if math.Abs(stitchBill-ref.TotalBillUSD()) > 1e-9*(1+ref.TotalBillUSD()) {
		t.Errorf("stitched bill %v, uncrashed %v", stitchBill, ref.TotalBillUSD())
	}

	// Battery state survived: the resumed first hour saw the pre-crash SoC,
	// so the hour-by-hour SoC trajectories agree across the crash.
	refHour := ref.Hours[crashed.HaltAfterHours]
	resHour := res2.Hours[0]
	for i := range refHour.SiteSoCMWh {
		if resHour.SiteSoCMWh[i] != refHour.SiteSoCMWh[i] {
			t.Errorf("site %d SoC %v after resume hour, uncrashed %v",
				i, resHour.SiteSoCMWh[i], refHour.SiteSoCMWh[i])
		}
	}
}

// TestCapViolationHoursCountMeteredDraw pins that Result.CapViolationHours
// counts the hours whose metered grid draw — IT power plus battery charge
// minus discharge, the reading the supplier bills and penalizes — exceeds a
// cap, not the pre-battery IT draw. With batteries the two differ: at this
// seed the tight-budget fortnight charges cap penalties in hours whose IT
// draw alone is within every cap, and a count taken before the meter
// reported 0 violation hours next to a nonzero penalty.
func TestCapViolationHoursCountMeteredDraw(t *testing.T) {
	cfg, err := ShortScenario(pricing.Policy1, TightBudget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DemandChargeUSDPerMWMonth = 1200
	cfg.Batteries = testBatteries(len(cfg.DCs))
	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	metered := 0
	for _, h := range res.Hours {
		if h.CapViolations > 0 {
			metered++
			if h.PenaltyUSD <= 0 {
				t.Errorf("hour %d: %d metered cap violations but no penalty", h.Hour, h.CapViolations)
			}
		}
	}
	if res.CapViolationHours != metered {
		t.Fatalf("CapViolationHours = %d, want %d (hours whose metered draw exceeds a cap)",
			res.CapViolationHours, metered)
	}
	if (res.TotalPenaltyUSD > 0) != (res.CapViolationHours > 0) {
		t.Errorf("penalty %v with %d cap-violation hours", res.TotalPenaltyUSD, res.CapViolationHours)
	}
	t.Logf("%d of %d hours meter a cap violation", metered, len(res.Hours))
}
