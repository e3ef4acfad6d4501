package audit

import (
	"math"
	"strings"
	"testing"
)

// tariff is a two-band step price: $50 below 10 MW total draw, $80 at or
// above.
func tariff(totalMW float64) float64 {
	if totalMW < 10 {
		return 50
	}
	return 80
}

func oneSite() []Site {
	return []Site{{
		MaxLambda:   100,
		MWPerLambda: 0.05,
		IdleMW:      1,
		PowerCapMW:  8,
		SlackMW:     0.01,
		DemandMW:    2,
		Price:       tariff,
	}}
}

// claimFor derives an internally consistent claim from a lambda.
func claimFor(s Site, lambda float64) Claim {
	p := s.MWPerLambda*lambda + s.IdleMW
	rate := s.Price(s.DemandMW + p)
	return Claim{Lambda: lambda, PowerMW: p, Rate: rate, CostUSD: rate * p, On: true}
}

func TestCheckAcceptsConsistentClaim(t *testing.T) {
	sites := oneSite()
	c := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1000, ServeAll: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("consistent claim rejected: %v", err)
	}
}

func TestCheckRejections(t *testing.T) {
	sites := oneSite()
	good := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1000, ServeAll: true}

	cases := []struct {
		name   string
		mutate func(*Claim, *[]Site, *Input)
		want   string
	}{
		{"over SLA limit", func(c *Claim, _ *[]Site, in *Input) {
			*c = claimFor(oneSite()[0], 150)
			in.TotalLambda = 150
		}, "SLA limit"},
		{"power model mismatch", func(c *Claim, _ *[]Site, _ *Input) {
			c.PowerMW *= 0.5
		}, "model says"},
		{"over power cap", func(c *Claim, s *[]Site, _ *Input) {
			(*s)[0].PowerCapMW = 1
		}, "supplier cap"},
		{"wrong tariff band", func(c *Claim, _ *[]Site, _ *Input) {
			c.Rate = 999
			c.CostUSD = c.Rate * c.PowerMW
		}, "tariff says"},
		{"cost not rate times power", func(c *Claim, _ *[]Site, _ *Input) {
			c.CostUSD *= 2
		}, "tariff re-derivation"},
		{"off but loaded", func(c *Claim, _ *[]Site, _ *Input) {
			c.On = false
		}, "off but carries"},
		{"down but loaded", func(_ *Claim, s *[]Site, _ *Input) {
			(*s)[0].Down = true
		}, "while down"},
		{"NaN power", func(c *Claim, _ *[]Site, _ *Input) {
			c.PowerMW = math.NaN()
		}, "non-finite"},
		{"negative lambda", func(c *Claim, _ *[]Site, _ *Input) {
			c.Lambda = -1
		}, "negative"},
		{"over budget", func(_ *Claim, _ *[]Site, in *Input) {
			in.BudgetUSD = 1
		}, "over budget"},
		{"serve-all shortfall", func(_ *Claim, _ *[]Site, in *Input) {
			in.TotalLambda = 90
		}, "arrivals"},
		{"served exceeds arrivals", func(_ *Claim, _ *[]Site, in *Input) {
			in.TotalLambda = 10
			in.ServeAll = false
		}, "exceeds arrivals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s, i := good, oneSite(), in
			tc.mutate(&c, &s, &i)
			err := Check(s, []Claim{c}, i)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckArityMismatch(t *testing.T) {
	if err := Check(oneSite(), nil, Input{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestCheckBudgetExempt(t *testing.T) {
	sites := oneSite()
	c := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1, BudgetExempt: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("budget-exempt branch rejected for budget: %v", err)
	}
}

func TestCheckBoundaryGrace(t *testing.T) {
	// Load lands exactly on the 10 MW band boundary: Price(10) = 80, but the
	// planner deliberately priced it an epsilon inside the cheaper band. The
	// auditor must accept the cheaper rate rather than reject a correct plan.
	// The 8 MW draw needs a cap with room for the rounding slack.
	sites := oneSite()
	sites[0].MaxLambda = 200
	sites[0].PowerCapMW = 9
	s := sites[0]
	lambda := (10 - s.DemandMW - s.IdleMW) / s.MWPerLambda
	p := s.MWPerLambda*lambda + s.IdleMW
	c := Claim{Lambda: lambda, PowerMW: p, Rate: 50, CostUSD: 50 * p, On: true}
	in := Input{TotalLambda: lambda, BudgetUSD: 1000, ServeAll: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("boundary-priced claim rejected: %v", err)
	}

	// A draw inside (cap − slack, cap] leaves no room for the realized IT
	// draw to round up, so it is over the cap.
	for _, capMW := range []float64{p, p + s.SlackMW/2} {
		sites[0].PowerCapMW = capMW
		err := Check(sites, []Claim{c}, in)
		if err == nil || !strings.Contains(err.Error(), "supplier cap") {
			t.Errorf("draw %v MW against cap %v MW less %v MW slack: got %v, want a cap rejection",
				p, capMW, s.SlackMW, err)
		}
	}
}

func TestCheckAllOffIsFeasibleWhenNotServeAll(t *testing.T) {
	sites := oneSite()
	in := Input{TotalLambda: 60, BudgetUSD: 0}
	if err := Check(sites, []Claim{{}}, in); err != nil {
		t.Fatalf("all-off shed plan rejected: %v", err)
	}
}
