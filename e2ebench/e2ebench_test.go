package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/sim"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload at its minimum length, measured and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit, in the report and in the closing JSON line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			res, err := run(w.Name, 1, time.Millisecond, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, environment(w.Name, 1, 0, trace)); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					w.Name, trace, got.Correct, got.Failed, got.Attempted, res.firstErr)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, g.Value)
				}
				if !strings.Contains(out.String(), m.Name+" ") {
					t.Errorf("%s trace=%v: %s not in the report", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// paperChecker is a checker over the paper sites' advertised caps.
func paperChecker(t *testing.T) (*checker, []*dcmodel.Site) {
	t.Helper()
	dcs := dcmodel.PaperSites()
	sites := make([]api.SiteInfo, len(dcs))
	for i, dc := range dcs {
		sites[i] = api.SiteInfo{Name: dc.Name, PowerCapMW: dc.PowerCapMW}
	}
	c, err := newChecker(sites, dcs)
	if err != nil {
		t.Fatal(err)
	}
	return c, dcs
}

// TestChecksCatchTamperedAnswers feeds the checks a valid decide answer and
// copies of it with one field broken each; every broken copy must count as
// a failed operation.
func TestChecksCatchTamperedAnswers(t *testing.T) {
	c, dcs := paperChecker(t)
	h := hour{total: 3e12, premium: 2.4e12, demandMW: []float64{170, 190, 150}, budgetUSD: 1000}
	good := api.DecideResponse{Step: core.StepCostMin.String(), Served: 3e12, PredictedCostUSD: 900}
	for _, dc := range dcs {
		good.Sites = append(good.Sites, api.SiteDecision{Site: dc.Name, Lambda: 1e12, PowerMW: dc.PowerCapMW / 2})
	}
	cases := map[string]func(r *api.DecideResponse){
		"valid":             func(r *api.DecideResponse) {},
		"sum of lambda":     func(r *api.DecideResponse) { r.Sites[1].Lambda *= 1 + 1e-6 },
		"served > arrived":  func(r *api.DecideResponse) { r.Served = 3.1e12; r.Sites[0].Lambda += 0.1e12 },
		"over cap":          func(r *api.DecideResponse) { r.Sites[2].PowerMW = c.capMW[2] + 2*c.slackMW[2] },
		"over budget":       func(r *api.DecideResponse) { r.PredictedCostUSD = 1100 },
		"missing site":      func(r *api.DecideResponse) { r.Sites = r.Sites[:2] },
		"premium-only step": func(r *api.DecideResponse) { r.Step = core.StepPremiumOnly.String(); r.PredictedCostUSD = 1100 },
	}
	for name, tamper := range cases {
		r := good
		r.Sites = append([]api.SiteDecision(nil), good.Sites...)
		tamper(&r)
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		_, cerr := c.decide(h, 200, body)
		tl.op(cerr)
		wantFail := name != "valid" && name != "premium-only step"
		if (tl.failed == 1) != wantFail {
			t.Errorf("%s: failed=%d, want failure %v (%v)", name, tl.failed, wantFail, cerr)
		}
	}
	var tl tally
	_, cerr := c.decide(h, 500, []byte(`{"error":"boom"}`))
	tl.op(cerr)
	if tl.failed != 1 {
		t.Error("a 500 answer was not counted as failed")
	}
}

func TestRouteChecks(t *testing.T) {
	c, _ := paperChecker(t)
	body := func(r api.RouteResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := c.route(200, body(api.RouteResponse{Admitted: true, SiteIndex: 1, Hour: 7}), true, 7); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	if err := c.route(200, body(api.RouteResponse{SiteIndex: -1, Hour: 7}), false, 7); err != nil {
		t.Errorf("dropped ordinary route rejected: %v", err)
	}
	bad := map[string]error{
		"premium dropped": c.route(200, body(api.RouteResponse{SiteIndex: -1, Hour: 7}), true, 7),
		"site range":      c.route(200, body(api.RouteResponse{Admitted: true, SiteIndex: 3, Hour: 7}), true, 7),
		"stale table":     c.route(200, body(api.RouteResponse{Admitted: true, SiteIndex: 0, Hour: 6}), true, 7),
		"status":          c.route(503, []byte(`{}`), true, 7),
	}
	for name, err := range bad {
		if err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestMonthCheckCatchesDrift(t *testing.T) {
	ref := sim.Result{Hours: []sim.HourRecord{{Hour: 0, CostUSD: 10}, {Hour: 1, CostUSD: 20}}}
	same := sim.Result{Hours: append([]sim.HourRecord(nil), ref.Hours...)}
	if errs := checkMonth(same, &ref, 2, true); errors.Join(errs...) != nil {
		t.Errorf("identical month rejected: %v", errors.Join(errs...))
	}
	drift := sim.Result{Hours: append([]sim.HourRecord(nil), ref.Hours...)}
	drift.Hours[1].CostUSD = math.Nextafter(20, 21)
	short := sim.Result{Hours: ref.Hours[:1]}
	capped := sim.Result{Hours: append([]sim.HourRecord(nil), ref.Hours...)}
	capped.Hours[0].CapViolations = 1
	for name, r := range map[string]sim.Result{"drift": drift, "short": short, "cap": capped} {
		var tl tally
		for _, err := range checkMonth(r, &ref, 2, true) {
			tl.op(err)
		}
		if tl.failed != 1 || tl.attempted != 2 {
			t.Errorf("%s: %d of %d hours failed, want 1 of 2", name, tl.failed, tl.attempted)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP billcap_x x
billcap_decide_total 3
billcap_http_request_seconds_sum{route="/v1/decide"} 0.5
other_metric 9
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`billcap_decide_total 5
billcap_http_request_seconds_sum{route="/v1/decide"} 0.75
billcap_new_total 1
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["billcap_decide_total"] != 2 || d[`billcap_http_request_seconds_sum{route="/v1/decide"}`] != 0.25 || d["billcap_new_total"] != 1 {
		t.Errorf("delta = %v", d)
	}
	if _, ok := d["other_metric"]; ok {
		t.Error("non-billcap series kept")
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	sp, err := lookup("paper-hours")
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(sp, 4)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.hours[len(a.hours)-1].request(1))
	jb, _ := json.Marshal(b.hours[len(b.hours)-1].request(1))
	jc, _ := json.Marshal(c.hours[len(c.hours)-1].request(1))
	if !bytes.Equal(ja, jb) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(ja, jc) {
		t.Error("different seeds gave the same inputs")
	}
}
