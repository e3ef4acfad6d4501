package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// fuzzServer is the fuzzer's 3-site capperd: the paper's sites and policies
// with a $1500/MW-month demand charge and a battery at every site.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.EnableTariff(1500, tariffSpecs(len(dcmodel.PaperSites()))); err != nil {
		tb.Fatal(err)
	}
	return s
}

func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// FuzzDecide drives /v1/decide with arbitrary bytes. A body that does not
// decode must be refused as the client's fault (400, or 413 when oversized).
// A body that does is re-sent through the degradation ladder
// ("resilient": true), which must answer 200, 400 or 504 — never a 500 or a
// recovered panic — and a 200 must keep every site within the SLA limit
// /v1/sites reports. Each input gets a fresh server, so a failure replays
// from its input alone.
func FuzzDecide(f *testing.F) {
	for _, seed := range []string{
		`{"totalLambda":1.5e12,"premiumLambda":1.2e12,"demandMW":[170,190,150]}`,
		`{"totalLambda":1.5e12,"premiumLambda":1.2e12,"demandMW":[170,190,150],"budgetUSD":1}`,
		`{"totalLambda":9e12,"premiumLambda":9e12,"demandMW":[170,190,150],"budgetUSD":0}`,
		`{"totalLambda":1e12,"premiumLambda":5e11,"demandMW":[170,190,150],"down":[true,false,true],"hour":7}`,
		`{"totalLambda":1e12,"premiumLambda":5e11,"demandMW":[170,190,150],"peakMW":[60,60,60],"demandChargeUSDPerMW":2000}`,
		`{"totalLambda":1e12,"premiumLambda":5e11,"demandMW":[170,190,150],"batteries":[{"CapacityMWh":40,"MaxChargeMW":15,"MaxDischargeMW":15,"Efficiency":0.9,"SoCMWh":50}]}`,
		`{"totalLambda":1e12,"premiumLambda":5e11,"demandMW":[170,190,150],"rtPriceUSDPerMWh":[30,40,50],"commitMW":[10,10,10]}`,
		`{"totalLambda":1e12,"premiumLambda":5e11,"demandMW":[170,190,150],"timeoutMS":0.001}`,
		`{"totalLambda":-1,"premiumLambda":0,"demandMW":[170]}`,
		`{"totalLambda":1e308,"premiumLambda":1e308,"demandMW":[1e308,0,0]}`,
		`{"totalLambda":"x"}`,
		`null`, `[]`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	maxLambda := map[string]float64{}
	var sites []SiteInfo
	if rec := serve(fuzzServer(f), http.MethodGet, "/v1/sites", nil); rec.Code != http.StatusOK {
		f.Fatalf("/v1/sites: %d %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &sites); err != nil {
		f.Fatal(err)
	}
	for _, si := range sites {
		maxLambda[si.Name] = si.MaxLambda
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req DecideRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			rec := serve(fuzzServer(t), http.MethodPost, "/v1/decide", body)
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("undecodable body answered %d: %s", rec.Code, rec.Body)
			}
			return
		}
		req.Resilient = true
		resilient, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		rec := serve(fuzzServer(t), http.MethodPost, "/v1/decide", resilient)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("resilient decide of %s answered %d: %s", resilient, rec.Code, rec.Body)
		}
		if strings.Contains(rec.Body.String(), "panic") {
			t.Fatalf("resilient decide of %s recovered a panic: %s", resilient, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp DecideResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		for _, sd := range resp.Sites {
			lim, ok := maxLambda[sd.Site]
			if !ok || sd.Lambda > lim {
				t.Fatalf("resilient decide of %s put %v req/h on %q, SLA limit %v", resilient, sd.Lambda, sd.Site, lim)
			}
		}
	})
}
