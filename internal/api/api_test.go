package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, body)
	}
}

func TestSites(t *testing.T) {
	ts := newTestServer(t)
	var sites []SiteInfo
	resp := getJSON(t, ts.URL+"/v1/sites", &sites)
	if resp.StatusCode != http.StatusOK || len(sites) != 3 {
		t.Fatalf("sites = %d, status %d", len(sites), resp.StatusCode)
	}
	if sites[0].Name != "DC1-B" || sites[0].MaxLambda <= 0 || sites[0].PowerCapMW != 105 {
		t.Errorf("site[0] = %+v", sites[0])
	}
}

func TestPolicies(t *testing.T) {
	ts := newTestServer(t)
	var pols []PolicyInfo
	resp := getJSON(t, ts.URL+"/v1/policies", &pols)
	if resp.StatusCode != http.StatusOK || len(pols) != 3 {
		t.Fatalf("policies = %d, status %d", len(pols), resp.StatusCode)
	}
	if len(pols[0].Rates) != 5 || pols[0].Rates[0] != 10 {
		t.Errorf("policy[0] = %+v", pols[0])
	}
}

func TestDecideUncappedAndCapped(t *testing.T) {
	ts := newTestServer(t)
	req := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", req, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if dec.Step != "cost-min" || dec.Served <= 0 || len(dec.Sites) != 3 {
		t.Fatalf("decision = %+v", dec)
	}

	tiny := 1.0
	req.BudgetUSD = &tiny
	var capped DecideResponse
	resp = postJSON(t, ts.URL+"/v1/decide", req, &capped)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if capped.Step != "premium-only" {
		t.Errorf("step = %q, want premium-only under a $1 budget", capped.Step)
	}
	if capped.ServedOrdinary != 0 {
		t.Errorf("ordinary served %v", capped.ServedOrdinary)
	}
}

func TestDecideDecomposedReportsGap(t *testing.T) {
	// A server running the fleet-scale decomposition path must surface the
	// subgradient effort and the proven primal–dual gap on the wire. 21
	// sites is the smallest fleet -decompose routes away from the exact MILP.
	const n = 21
	s, err := New(dcmodel.SyntheticSites(n), pricing.Synthetic(n), core.Options{Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	demand := make([]float64, n)
	for i := range demand {
		demand[i] = 150 + 15*float64(i%4)
	}
	capacity := s.sys.MaxThroughput()
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda: 0.7 * capacity, PremiumLambda: 0.3 * capacity,
		DemandMW: demand,
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if dec.SolverDecompIterations == 0 {
		t.Errorf("no decomposition iterations reported: %+v", dec)
	}
	if dec.SolverDecompDualBound == 0 {
		t.Errorf("no dual bound reported: %+v", dec)
	}
	if dec.SolverNodes != 0 {
		t.Errorf("decomposed decision still explored %d MILP nodes", dec.SolverNodes)
	}
	if dec.Served <= 0 || len(dec.Sites) != n {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestDecideThenRealizeRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	var dec DecideResponse
	postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda: 1e12, DemandMW: []float64{170, 190, 150},
	}, &dec)
	lams := make([]float64, len(dec.Sites))
	for i, sd := range dec.Sites {
		lams[i] = sd.Lambda
	}
	var real RealizeResponse
	resp := postJSON(t, ts.URL+"/v1/realize", RealizeRequest{
		Lambdas: lams, DemandMW: []float64{170, 190, 150},
	}, &real)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if real.BillUSD <= 0 || real.CapViolations != 0 {
		t.Fatalf("realize = %+v", real)
	}
	if math.Abs(real.BillUSD-dec.PredictedCostUSD) > 0.05*dec.PredictedCostUSD {
		t.Errorf("bill %v far from prediction %v", real.BillUSD, dec.PredictedCostUSD)
	}
}

// TestErrorStatuses pins the API's status-code contract: client mistakes —
// wrong method, undecodable or semantically invalid bodies — are 4xx, and
// the exact code for each failure class is part of the interface.
func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"wrong method on sites", http.MethodPost, "/v1/sites", "{}", http.StatusMethodNotAllowed},
		{"wrong method on decide", http.MethodGet, "/v1/decide", "", http.StatusMethodNotAllowed},
		{"wrong method on realize", http.MethodGet, "/v1/realize", "", http.StatusMethodNotAllowed},
		{"wrong method on model", http.MethodGet, "/v1/model", "", http.StatusMethodNotAllowed},
		{"undecodable body", http.MethodPost, "/v1/decide", "{nope", http.StatusBadRequest},
		{"negative workload", http.MethodPost, "/v1/decide",
			`{"totalLambda": -1, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"premium above total", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "premiumLambda": 2, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"demand arity", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1]}`, http.StatusBadRequest},
		{"negative budget", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1, 2, 3], "budgetUSD": -5}`, http.StatusBadRequest},
		{"availability arity", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1, 2, 3], "down": [true]}`, http.StatusBadRequest},
		{"realize arity", http.MethodPost, "/v1/realize",
			`{"lambdas": [1], "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"realize negative load", http.MethodPost, "/v1/realize",
			`{"lambdas": [-1, 0, 0], "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"model negative workload", http.MethodPost, "/v1/model",
			`{"totalLambda": -1, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"unknown endpoint", http.MethodGet, "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
				t.Errorf("%s %s: error envelope missing (%v)", tc.method, tc.path, err)
			}
		})
	}
}

// postModel posts a decide request to /v1/model and returns the dump.
func postModel(t *testing.T, url string, req DecideRequest) string {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/model", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

func TestModelDump(t *testing.T) {
	ts := newTestServer(t)
	text := postModel(t, ts.URL, DecideRequest{
		TotalLambda: 1e12, DemandMW: []float64{170, 190, 150},
	})
	if !strings.Contains(text, "min:") || !strings.Contains(text, "int ") {
		t.Fatalf("dump does not look like an LP model:\n%.200s", text)
	}
	// Bad input → 400.
	bad, _ := json.Marshal(DecideRequest{TotalLambda: -1, DemandMW: []float64{1, 2, 3}})
	resp2, err := http.Post(ts.URL+"/v1/model", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad input status %d", resp2.StatusCode)
	}
}

// TestModelDumpIsTheDecidedHour pins that /v1/model reads its body exactly
// as /v1/decide does: a down site is pinned off in the dump (DC2's y = 0
// row; the writer spells "DC2-C.y" as DC2_C_y), and the live tariff
// position's demand charge adds its peak-exceedance variables.
func TestModelDumpIsTheDecidedHour(t *testing.T) {
	const pinned = ": DC2_C_y = 0\n"
	ts := newTestServer(t)
	req := DecideRequest{TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}}
	if text := postModel(t, ts.URL, req); strings.Contains(text, pinned) {
		t.Fatalf("an all-up hour already pins DC2 off:\n%s", text)
	}
	req.Down = []bool{false, true, false}
	if text := postModel(t, ts.URL, req); !strings.Contains(text, pinned) {
		t.Errorf("down site DC2 is not pinned off in the dump:\n%s", text)
	}

	s := tariffServer(t, 1500, false)
	tts := httptest.NewServer(s.Handler())
	defer tts.Close()
	text := postModel(t, tts.URL, DecideRequest{TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}})
	for _, name := range []string{"DC1_B_peak", "DC2_C_peak", "DC3_D_peak"} {
		if !strings.Contains(text, name) {
			t.Errorf("demand-charge server's dump lacks %s:\n%s", name, text)
		}
	}
}
