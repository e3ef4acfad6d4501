package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"billcap/internal/battery"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

func tariffSpecs(n int) []core.BatterySpec {
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

func tariffServer(t *testing.T, rate float64, batteries bool) *Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.BatterySpec
	if batteries {
		specs = tariffSpecs(len(dcmodel.PaperSites()))
	}
	if err := s.EnableTariff(rate, specs); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTariffEndpointAndCommit pins the server-held billing position: a
// served decision ratchets the demand-charge ledger and moves real battery
// energy, both visible on GET /v1/tariff; an override (what-if) request
// leaves the position untouched.
func TestTariffEndpointAndCommit(t *testing.T) {
	s := tariffServer(t, 1000, true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var pos TariffResponse
	if resp := getJSON(t, ts.URL+"/v1/tariff", &pos); resp.StatusCode != http.StatusOK {
		t.Fatalf("tariff: %d", resp.StatusCode)
	}
	if pos.DemandChargeUSDPerMWMonth != 1000 || len(pos.Sites) != 3 {
		t.Fatalf("position = %+v", pos)
	}
	for _, row := range pos.Sites {
		if row.PeakMW != 0 {
			t.Errorf("site %s peak %v before any decision", row.Site, row.PeakMW)
		}
		if row.BatCapacityMWh != 40 || row.BatSoCMWh != 20 {
			t.Errorf("site %s battery %+v", row.Site, row)
		}
	}

	req := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	var dec DecideResponse
	if resp := postJSON(t, ts.URL+"/v1/decide", req, &dec); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	if dec.DemandChargeUSD <= 0 {
		t.Errorf("decision carries no demand charge: %+v", dec)
	}

	var after TariffResponse
	getJSON(t, ts.URL+"/v1/tariff", &after)
	sum := 0.0
	for i, row := range after.Sites {
		if math.Abs(row.PeakMW-dec.Sites[i].GridMW) > 1e-9 {
			t.Errorf("site %s ledger %v, decision grid %v", row.Site, row.PeakMW, dec.Sites[i].GridMW)
		}
		sum += row.PeakMW
	}
	if sum <= 0 {
		t.Fatal("ledger never ratcheted")
	}
	if after.DemandChargeSoFarUSD <= 0 {
		t.Errorf("demand charge so far = %v", after.DemandChargeSoFarUSD)
	}

	// A what-if request (explicit ledger override) must not move the position.
	what := req
	what.PeakMW = []float64{500, 500, 500}
	var whatDec DecideResponse
	postJSON(t, ts.URL+"/v1/decide", what, &whatDec)
	if whatDec.DemandChargeUSD != 0 {
		t.Errorf("grid below the 500 MW override still billed %v", whatDec.DemandChargeUSD)
	}
	var again TariffResponse
	getJSON(t, ts.URL+"/v1/tariff", &again)
	for i, row := range again.Sites {
		if row.PeakMW != after.Sites[i].PeakMW {
			t.Errorf("what-if moved the ledger: %v -> %v", after.Sites[i].PeakMW, row.PeakMW)
		}
	}

	// Batch is always what-if: same ledger after a batch decide.
	batch := BatchDecideRequest{Hours: []DecideRequest{req, req}}
	var bresp BatchDecideResponse
	if resp := postJSON(t, ts.URL+"/v1/decide/batch", batch, &bresp); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/tariff", &again)
	for i, row := range again.Sites {
		if row.PeakMW != after.Sites[i].PeakMW {
			t.Errorf("batch moved the ledger: %v -> %v", after.Sites[i].PeakMW, row.PeakMW)
		}
	}
}

// TestTariffStateSurvivesRestart extends the crash-recovery contract to the
// billing position: the peak ledger and battery charge ride the WAL, so a
// restarted server bills demand charges against the same month-to-date peak.
func TestTariffStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	boot := func() *Server {
		s := tariffServer(t, 1500, true)
		if _, err := s.EnableState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := boot()
	ts1 := httptest.NewServer(s1.Handler())
	var dec DecideResponse
	if resp := postJSON(t, ts1.URL+"/v1/decide", resilientReq(3), &dec); resp.StatusCode != 200 {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	var pos1 TariffResponse
	getJSON(t, ts1.URL+"/v1/tariff", &pos1)
	ts1.Close()
	// Simulate SIGKILL: no CloseState, the WAL alone carries the position.

	s2 := boot()
	defer s2.CloseState()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var pos2 TariffResponse
	getJSON(t, ts2.URL+"/v1/tariff", &pos2)
	for i, row := range pos2.Sites {
		if row.PeakMW != pos1.Sites[i].PeakMW {
			t.Errorf("site %s restored peak %v, want %v", row.Site, row.PeakMW, pos1.Sites[i].PeakMW)
		}
		if math.Abs(row.BatSoCMWh-pos1.Sites[i].BatSoCMWh) > 1e-9 {
			t.Errorf("site %s restored SoC %v, want %v", row.Site, row.BatSoCMWh, pos1.Sites[i].BatSoCMWh)
		}
	}
}

// TestEnableTariffValidates pins the constructor's input checks.
func TestEnableTariffValidates(t *testing.T) {
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTariff(-1, nil); err == nil {
		t.Error("negative demand charge accepted")
	}
	if err := s.EnableTariff(math.NaN(), nil); err == nil {
		t.Error("NaN demand charge accepted")
	}
	if err := s.EnableTariff(0, tariffSpecs(2)); err == nil {
		t.Error("2 battery specs for 3 sites accepted")
	}
	bad := tariffSpecs(3)
	bad[1].Efficiency = 1.5
	if err := s.EnableTariff(0, bad); err == nil {
		t.Error("efficiency 1.5 accepted")
	}
}

// TestEnableTariffMisuseIsAnError pins the call-order contract: a second
// EnableTariff, or one after EnableState, is an error rather than a panic on
// the duplicate route or a silently dropped restored position.
func TestEnableTariffMisuseIsAnError(t *testing.T) {
	s := tariffServer(t, 1000, true)
	if err := s.EnableTariff(1000, nil); err == nil {
		t.Error("second EnableTariff accepted")
	}

	// A state dir holding a position: peak 24.97 MW and 5 MWh at site 0.
	dir := t.TempDir()
	writeEntry(t, dir, state.Entry{
		Peaks:         &pricing.PeakState{PeaksMW: []float64{24.97, 0, 0}},
		BatterySoCMWh: []float64{5, 20, 20},
	})
	late, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	defer late.CloseState()
	if err := late.EnableTariff(1000, tariffSpecs(3)); err == nil {
		t.Error("EnableTariff after EnableState accepted, dropping the restored position")
	}
}

// TestEnableStateRejectsWrongLengthPosition pins that a persisted position
// for a different fleet size fails at startup, instead of every later
// /v1/decide failing on a peak vector of the wrong length.
func TestEnableStateRejectsWrongLengthPosition(t *testing.T) {
	for name, e := range map[string]state.Entry{
		"peaks": {Peaks: &pricing.PeakState{PeaksMW: []float64{24.97, 1}}},
		"socs":  {BatterySoCMWh: []float64{5, 5}},
	} {
		dir := t.TempDir()
		writeEntry(t, dir, e)
		s := tariffServer(t, 1500, false)
		if _, err := s.EnableState(dir); err == nil {
			s.CloseState()
			t.Errorf("%s: 2-site position restored into a 3-site server", name)
		}
	}
}

// writeEntry leaves one WAL entry in dir, as a crashed server would.
func writeEntry(t *testing.T, dir string, e state.Entry) {
	t.Helper()
	store, _, _, err := state.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTariffConcurrentCommitsFollowWALOrder pins that a decision's commit
// and its WAL entry happen in one critical section: under concurrent
// resilient decides, the WAL holds one entry per decide, and replaying the
// responses' battery actions in WAL order reproduces every entry's charge
// and peaks exactly.
func TestTariffConcurrentCommitsFollowWALOrder(t *testing.T) {
	dir := t.TempDir()
	s := tariffServer(t, 1500, true)
	if _, err := s.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	defer s.CloseState()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fewer decides than the checkpoint cadence (state.SnapshotDue), so no
	// checkpoint compacts the WAL under the test.
	const decides = 16
	resps := make([]DecideResponse, decides)
	var wg sync.WaitGroup
	for h := 0; h < decides; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			req := resilientReq(h)
			req.TotalLambda = 1.3e12 + 0.02e12*float64(h)
			req.PremiumLambda = 0.8 * req.TotalLambda
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("hour %d: status %d", h, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&resps[h]); err != nil {
				t.Error(err)
			}
		}(h)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	entries := readWAL(t, filepath.Join(dir, "wal.log"))
	if len(entries) != decides {
		t.Fatalf("WAL holds %d entries for %d decides", len(entries), decides)
	}
	specs := tariffSpecs(3)
	bats := make([]*battery.Battery, len(specs))
	for i, sp := range specs {
		b, err := battery.New(sp.CapacityMWh, sp.MaxChargeMW, sp.MaxDischargeMW, sp.Efficiency)
		if err != nil {
			t.Fatal(err)
		}
		b.SetSoC(sp.SoCMWh)
		bats[i] = b
	}
	peaks := make([]float64, len(specs))
	seen := map[int]bool{}
	for k, e := range entries {
		if seen[e.Hour] {
			t.Fatalf("entry %d: hour %d logged twice", k, e.Hour)
		}
		seen[e.Hour] = true
		if e.Peaks == nil || len(e.Peaks.PeaksMW) != len(specs) || len(e.BatterySoCMWh) != len(specs) {
			t.Fatalf("entry %d (hour %d) carries no full position: %+v", k, e.Hour, e)
		}
		for i, a := range resps[e.Hour].Sites {
			g := bats[i].Discharge(math.Min(a.DischargeMW, a.PowerMW))
			c := bats[i].Charge(a.ChargeMW)
			peaks[i] = math.Max(peaks[i], a.PowerMW+c-g)
			if e.BatterySoCMWh[i] != bats[i].SoC() || e.Peaks.PeaksMW[i] != peaks[i] {
				t.Fatalf("entry %d (hour %d) site %d: logged SoC %v peak %v, replay gives %v and %v",
					k, e.Hour, i, e.BatterySoCMWh[i], e.Peaks.PeaksMW[i], bats[i].SoC(), peaks[i])
			}
		}
	}
}

// readWAL decodes every record of a WAL file.
func readWAL(t *testing.T, path string) []state.Entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []state.Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var rec struct{ V state.Entry }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.V)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
