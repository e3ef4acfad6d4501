package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"billcap/internal/obs"
)

func goodInput(hour int) HourInput {
	return HourInput{
		Hour:          hour,
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      demand3(),
		BudgetUSD:     math.Inf(1),
	}
}

func TestResilientOptimalPath(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	dec := r.Decide(goodInput(0))
	if dec.Degraded != DegradeNone {
		t.Fatalf("healthy hour degraded to %v", dec.Degraded)
	}
	if rel := math.Abs(dec.Served-1.5e12) / 1.5e12; rel > 1e-6 {
		t.Errorf("served %v of 1.5e12", dec.Served)
	}
}

func TestSolveDeadlineYieldsTimeLimitIncumbent(t *testing.T) {
	// A deadline that expires before the first branch-and-bound check forces
	// the incumbent-manufacturing path. The hour must actually branch for a
	// deadline to be interruptible: with the tightened on/off big-M the
	// uncapped paper hour solves integrally at the root LP (one solve, which
	// is the cooperative floor and yields a proven optimum regardless of
	// deadline), so use a binding budget, whose step-2/premium solves have
	// fractional roots.
	s := paperSystem(t, Options{SolveDeadline: time.Nanosecond})
	in := goodInput(0)
	in.BudgetUSD = 500
	dec, err := s.DecideHour(in)
	if err != nil {
		t.Fatalf("deadline-limited decide failed: %v", err)
	}
	if dec.Degraded != DegradeTimeLimit {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeTimeLimit)
	}
	if dec.Solver.Timeouts == 0 {
		t.Error("no timeout recorded in solver stats")
	}
	if dec.Served <= 0 {
		t.Error("incumbent served nothing")
	}
	for i, a := range dec.Sites {
		dc := s.Sites[i].DC
		if a.PowerMW > dc.PowerCapMW+1e-9 {
			t.Errorf("site %d incumbent draw %v exceeds cap %v", i, a.PowerMW, dc.PowerCapMW)
		}
	}
}

func TestResilientFallbackOnSolverFailure(t *testing.T) {
	sys := paperSystem(t, Options{})
	r := NewResilient(sys, ResilientOptions{})
	r.InjectSolverFailure(5)
	dec := r.Decide(goodInput(5))
	if dec.Degraded != DegradeFallback {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeFallback)
	}
	if rel := math.Abs(dec.ServedPremium-1.2e12) / 1.2e12; rel > 1e-6 {
		t.Errorf("fallback served %v premium of 1.2e12", dec.ServedPremium)
	}
	for i, a := range dec.Sites {
		dc := sys.Sites[i].DC
		if a.PowerMW > dc.PowerCapMW+1e-9 {
			t.Errorf("site %d fallback draw %v exceeds cap %v", i, a.PowerMW, dc.PowerCapMW)
		}
	}
}

func TestResilientStaleReuseAndShed(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{MaxStaleHours: 2})
	good := r.Decide(goodInput(0))
	if good.Degraded != DegradeNone {
		t.Fatalf("seed hour degraded: %v", good.Degraded)
	}

	// Both solver rungs down, last good decision 1 hour old → stale reuse,
	// scaled down to the smaller arrivals.
	for h := 1; h <= 4; h++ {
		r.InjectSolverFailure(h)
		r.InjectFallbackFailure(h)
	}
	in := goodInput(1)
	in.TotalLambda = 1e12
	in.PremiumLambda = 8e11
	dec := r.Decide(in)
	if dec.Degraded != DegradeStale {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeStale)
	}
	if dec.Served > in.TotalLambda*(1+1e-9) {
		t.Errorf("stale reuse served %v > arrivals %v", dec.Served, in.TotalLambda)
	}
	if dec.Served <= 0 {
		t.Error("stale reuse served nothing")
	}

	// 4 hours past the last good decision with MaxStaleHours=2 → shed.
	dec = r.Decide(goodInput(4))
	if dec.Degraded != DegradeShed {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeShed)
	}
	if dec.Served != 0 {
		t.Errorf("shed hour served %v", dec.Served)
	}
	if len(dec.Sites) != r.System().NumSites() {
		t.Errorf("shed decision has %d site entries", len(dec.Sites))
	}
}

func TestResilientStaleUnloadsDownSites(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	if dec := r.Decide(goodInput(0)); dec.Degraded != DegradeNone {
		t.Fatalf("seed hour degraded: %v", dec.Degraded)
	}
	r.InjectSolverFailure(1)
	r.InjectFallbackFailure(1)
	in := goodInput(1)
	in.Down = []bool{true, false, false}
	dec := r.Decide(in)
	if dec.Degraded != DegradeStale {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeStale)
	}
	if dec.Sites[0].Lambda != 0 || dec.Sites[0].On {
		t.Errorf("down site still loaded in stale reuse: %+v", dec.Sites[0])
	}
}

func TestResilientSanitizesCorruptFeeds(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	if dec := r.Decide(goodInput(0)); dec.Degraded != DegradeNone {
		t.Fatalf("seed hour degraded: %v", dec.Degraded)
	}
	// Hour 1: the demand feed drops (NaN) and the budget goes negative. The
	// last pristine values substitute and the MILP still answers.
	in := goodInput(1)
	in.DemandMW = []float64{math.NaN(), math.NaN(), math.NaN()}
	in.BudgetUSD = -100
	dec := r.Decide(in)
	if dec.Degraded != DegradeNone {
		t.Fatalf("patched input degraded to %v", dec.Degraded)
	}
	if dec.Served <= 0 {
		t.Error("patched hour served nothing")
	}
	// A wrong-arity demand feed is also survivable.
	in = goodInput(2)
	in.DemandMW = []float64{170}
	if dec := r.Decide(in); dec.Served <= 0 {
		t.Error("short demand feed served nothing")
	}
}

// TestSanitizeBatteryMatchesValidation pins the one battery-validity rule:
// every spec ValidateInput rejects, the resilient sanitizer zeroes (no
// battery at that site this hour), and every spec it accepts is kept as is.
func TestSanitizeBatteryMatchesValidation(t *testing.T) {
	good := BatterySpec{CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15,
		Efficiency: 0.9, SoCMWh: 20, ValueUSDPerMWh: 15}
	with := func(f func(*BatterySpec)) BatterySpec {
		b := good
		f(&b)
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	specs := map[string]BatterySpec{
		"good":                  good,
		"none":                  {},
		"none with junk rates":  {MaxChargeMW: nan, Efficiency: -3},
		"full":                  with(func(b *BatterySpec) { b.SoCMWh = b.CapacityMWh }),
		"empty":                 with(func(b *BatterySpec) { b.SoCMWh = 0 }),
		"charge only":           with(func(b *BatterySpec) { b.MaxDischargeMW = 0 }),
		"unit efficiency":       with(func(b *BatterySpec) { b.Efficiency = 1 }),
		"unvalued":              with(func(b *BatterySpec) { b.ValueUSDPerMWh = 0 }),
		"NaN capacity":          with(func(b *BatterySpec) { b.CapacityMWh = nan }),
		"infinite capacity":     with(func(b *BatterySpec) { b.CapacityMWh = inf }),
		"negative capacity":     with(func(b *BatterySpec) { b.CapacityMWh = -1 }),
		"NaN charge rate":       with(func(b *BatterySpec) { b.MaxChargeMW = nan }),
		"negative charge rate":  with(func(b *BatterySpec) { b.MaxChargeMW = -1 }),
		"infinite charge rate":  with(func(b *BatterySpec) { b.MaxChargeMW = inf }),
		"NaN discharge rate":    with(func(b *BatterySpec) { b.MaxDischargeMW = nan }),
		"negative discharge":    with(func(b *BatterySpec) { b.MaxDischargeMW = -1 }),
		"infinite discharge":    with(func(b *BatterySpec) { b.MaxDischargeMW = inf }),
		"zero efficiency":       with(func(b *BatterySpec) { b.Efficiency = 0 }),
		"efficiency above one":  with(func(b *BatterySpec) { b.Efficiency = 1.1 }),
		"NaN efficiency":        with(func(b *BatterySpec) { b.Efficiency = nan }),
		"NaN charge state":      with(func(b *BatterySpec) { b.SoCMWh = nan }),
		"negative charge state": with(func(b *BatterySpec) { b.SoCMWh = -1 }),
		"overfull":              with(func(b *BatterySpec) { b.SoCMWh = 41 }),
		"NaN value":             with(func(b *BatterySpec) { b.ValueUSDPerMWh = nan }),
		"infinite value":        with(func(b *BatterySpec) { b.ValueUSDPerMWh = inf }),
		"negative value":        with(func(b *BatterySpec) { b.ValueUSDPerMWh = -1 }),
	}
	sys := paperSystem(t, Options{})
	r := NewResilient(sys, ResilientOptions{})
	rejected := 0
	for name, spec := range specs {
		in := goodInput(0)
		in.Batteries = []BatterySpec{spec, good, {}}
		err := sys.ValidateInput(in)
		got := r.sanitize(in).Batteries[0]
		want := spec
		if err != nil {
			rejected++
			want = BatterySpec{}
		}
		// %v compares NaN fields too (NaN != NaN under ==).
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Errorf("%s: ValidateInput error %v, sanitized to %+v, want %+v", name, err, got, want)
		}
	}
	if rejected == 0 || rejected == len(specs) {
		t.Fatalf("table exercises only one side of the rule (%d of %d rejected)", rejected, len(specs))
	}
}

func TestResilientCancelledContextStillDecides(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Budget-capped so the hour branches; a root-integral hour would finish
	// its single LP solve (the cooperative floor) and legitimately report a
	// clean optimum even under a dead context.
	in := goodInput(0)
	in.BudgetUSD = 500
	dec := r.DecideCtx(ctx, in)
	if dec.Served <= 0 {
		t.Fatalf("cancelled context produced an empty decision (%v rung)", dec.Degraded)
	}
	if dec.Degraded == DegradeNone {
		// A pre-cancelled context cannot complete a clean branching solve; it
		// must land on a degraded rung (time-limit incumbent or below).
		t.Errorf("cancelled context claims a clean optimal solve")
	}
}

func TestDecideHourDownSite(t *testing.T) {
	s := paperSystem(t, Options{})
	in := goodInput(0)
	in.TotalLambda = 1e12
	in.PremiumLambda = 8e11
	in.Down = []bool{false, true, false}
	dec, err := s.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Sites[1].On || dec.Sites[1].Lambda != 0 {
		t.Fatalf("down site powered: %+v", dec.Sites[1])
	}
	if dec.Served <= 0 {
		t.Error("outage hour served nothing")
	}
}

func TestResilientMetricsCountRungs(t *testing.T) {
	reg := obs.NewRegistry()
	sys := paperSystem(t, Options{})
	sys.SetMetrics(NewMetrics(reg))
	r := NewResilient(sys, ResilientOptions{MaxStaleHours: 1})
	r.Decide(goodInput(0))
	r.InjectSolverFailure(1)
	r.Decide(goodInput(1))
	r.InjectSolverFailure(2)
	r.InjectFallbackFailure(2)
	r.Decide(goodInput(2))
	r.InjectSolverFailure(9)
	r.InjectFallbackFailure(9)
	r.Decide(goodInput(9)) // too stale → shed

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"billcap_fallback_used_total 1",
		"billcap_stale_decisions_total 1",
		`billcap_decide_degraded_total{rung="fallback"} 1`,
		`billcap_decide_degraded_total{rung="stale"} 1`,
		`billcap_decide_degraded_total{rung="shed"} 1`,
		`billcap_decide_degraded_total{rung="none"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
