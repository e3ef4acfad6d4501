package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

// recordingDecider is the resilient strategy, keeping every hour's input
// and decision.
type recordingDecider struct {
	*ResilientCapping
	ins  []core.HourInput
	decs []core.Decision
}

func (r *recordingDecider) Decide(in core.HourInput) (core.Decision, error) {
	dec, err := r.ResilientCapping.Decide(in)
	in.DemandMW = append([]float64(nil), in.DemandMW...) // Run reuses the slice
	r.ins = append(r.ins, in)
	r.decs = append(r.decs, dec)
	return dec, err
}

// TestSimAndCapperdRecordTheSameHours drives one hourly controller through
// both of its drivers. A seeded energy-only month runs through Run with the
// resilient strategy and a state directory; the same hour stream — the
// sim's per-hour budget, demand, load and premium — then goes to capperd
// over HTTP as resilient decides, with a state directory of its own. Every
// decision must be identical, and both directories must hold the same
// records in every field but spentUSD, which only the sim knows. No record
// carries a wall-clock field, so nothing else needs clearing.
func TestSimAndCapperdRecordTheSameHours(t *testing.T) {
	cfg, err := PaperScenario(pricing.Policy1, TightBudget())
	if err != nil {
		t.Fatal(err)
	}
	cfg.StateDir = t.TempDir()
	opts := core.Options{SolveDeadline: 2 * time.Second}
	rc, err := NewResilientCapping(cfg.DCs, cfg.Policies, opts, core.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dec := &recordingDecider{ResilientCapping: rc}
	if _, err := Run(cfg, dec); err != nil {
		t.Fatal(err)
	}

	srv, err := api.New(cfg.DCs, cfg.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	srvDir := t.TempDir()
	if _, err := srv.EnableState(srvDir); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseState()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for h, in := range dec.ins {
		req := api.DecideRequest{
			Hour:          in.Hour,
			TotalLambda:   in.TotalLambda,
			PremiumLambda: in.PremiumLambda,
			DemandMW:      in.DemandMW,
			Resilient:     true,
		}
		if !math.IsInf(in.BudgetUSD, 1) {
			b := in.BudgetUSD
			req.BudgetUSD = &b
		}
		got := postDecide(t, ts.URL, req)
		if msg := sameDecision(got, dec.decs[h]); msg != "" {
			t.Fatalf("hour %d: %s", h, msg)
		}
	}

	simWAL, srvWAL := walEntries(t, cfg.StateDir), walEntries(t, srvDir)
	if len(simWAL) == 0 || len(simWAL) != len(srvWAL) {
		t.Fatalf("sim WAL holds %d records, capperd's %d", len(simWAL), len(srvWAL))
	}
	for k := range simWAL {
		if !reflect.DeepEqual(simWAL[k], srvWAL[k]) {
			t.Errorf("record %d: sim %+v\ncapperd %+v", k, simWAL[k], srvWAL[k])
		}
	}
	for _, name := range snapshotFiles(t, cfg.StateDir) {
		simCP, srvCP := checkpointAt(t, cfg.StateDir, name), checkpointAt(t, srvDir, name)
		simCP.Budget, simCP.Forecast = nil, nil // capperd's budget comes per request
		if !reflect.DeepEqual(simCP, srvCP) {
			t.Errorf("%s: sim %+v\ncapperd %+v", name, simCP, srvCP)
		}
	}
}

func postDecide(t *testing.T, url string, req api.DecideRequest) api.DecideResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hour %d: status %d", req.Hour, resp.StatusCode)
	}
	var out api.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameDecision compares capperd's answer with the sim's decision, exactly.
func sameDecision(got api.DecideResponse, want core.Decision) string {
	wantDegraded := ""
	if want.Degraded != core.DegradeNone {
		wantDegraded = want.Degraded.String()
	}
	switch {
	case got.Step != want.Step.String() || got.Degraded != wantDegraded:
		return "step " + got.Step + "/" + got.Degraded + ", sim " + want.Step.String() + "/" + wantDegraded
	case got.Served != want.Served || got.ServedPremium != want.ServedPremium ||
		got.PredictedCostUSD != want.PredictedCostUSD || len(got.Sites) != len(want.Sites):
		return "served or cost differs"
	}
	for i, s := range got.Sites {
		w := want.Sites[i]
		if s.Lambda != w.Lambda || s.PowerMW != w.PowerMW || s.CostUSD != w.CostUSD || s.On != w.On {
			return "site allocation differs"
		}
	}
	return ""
}

// walEntries reads a state directory's WAL, clearing the one field only one
// driver can fill: the hour's spend.
func walEntries(t *testing.T, dir string) []state.Entry {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "wal.log"))
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
		rec.V.SpentUSD = 0
		out = append(out, rec.V)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints in %s: %v", dir, err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

func checkpointAt(t *testing.T, dir, name string) state.Checkpoint {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ V state.Checkpoint }
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.V
}
