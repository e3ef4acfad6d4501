package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

func stateServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

func resilientReq(hour int) DecideRequest {
	return DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		Hour:          hour,
		Resilient:     true,
	}
}

// TestStateSurvivesRestart is the daemon-level crash-recovery contract: a
// second server over the same -state-dir resumes the ladder, so its stale
// rung can replay the first server's last-known-good decision, /readyz shows
// the restore, and /metrics counts it.
func TestStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := stateServer(t, dir)
	ts1 := httptest.NewServer(s1.Handler())
	var dec DecideResponse
	if resp := postJSON(t, ts1.URL+"/v1/decide", resilientReq(7), &dec); resp.StatusCode != 200 {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	if dec.Degraded != "" {
		t.Fatalf("healthy decision degraded: %q", dec.Degraded)
	}
	ts1.Close()
	// Simulate SIGKILL: no CloseState, the WAL alone carries the state.

	s2 := stateServer(t, dir)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.CloseState()

	// The restored ladder serves the stale rung when both solver rungs fail.
	s2.Resilient().InjectSolverFailure(8)
	s2.Resilient().InjectFallbackFailure(8)
	var dec2 DecideResponse
	postJSON(t, ts2.URL+"/v1/decide", resilientReq(8), &dec2)
	if dec2.Degraded != "stale" {
		t.Fatalf("restored ladder degraded to %q, want stale", dec2.Degraded)
	}
	if dec2.Served <= 0 {
		t.Error("restored stale reuse served nothing")
	}

	var ready map[string]any
	getJSON(t, ts2.URL+"/readyz", &ready)
	restore, ok := ready["restore"].(map[string]any)
	if !ok {
		t.Fatalf("/readyz has no restore status: %v", ready)
	}
	if restore["restored"] != true {
		t.Errorf("restore status %v, want restored=true", restore)
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"billcap_state_restores_total 1",
		"billcap_wal_corruptions_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStateFreshDirReportsNoRestore pins the first-boot shape: state enabled,
// nothing to restore, /readyz says so.
func TestStateFreshDirReportsNoRestore(t *testing.T) {
	s := stateServer(t, t.TempDir())
	defer s.CloseState()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ready map[string]any
	getJSON(t, ts.URL+"/readyz", &ready)
	restore, ok := ready["restore"].(map[string]any)
	if !ok {
		t.Fatalf("/readyz has no restore status: %v", ready)
	}
	if restore["restored"] != false {
		t.Errorf("fresh dir reports restore: %v", restore)
	}
}

// TestStateRestoresBackwardsRequestHours pins that request hours do not
// order the durable record. A client decides hours 100..122 and then hour
// 5; after a SIGKILL, and after a clean CloseState, the restarted ladder is
// byte-identical to the ladder the first server last held. When WAL
// compaction and replay were keyed by the request hour, the checkpoint
// after hour 5 dropped its own entry and replay folded hour 122 back on
// top.
func TestStateRestoresBackwardsRequestHours(t *testing.T) {
	for _, clean := range []bool{false, true} {
		name := "sigkill"
		if clean {
			name = "close"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := stateServer(t, dir)
			ts1 := httptest.NewServer(s1.Handler())
			for _, h := range append(hourRange(100, 122), 5) {
				if resp := postJSON(t, ts1.URL+"/v1/decide", resilientReq(h), nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("hour %d: status %d", h, resp.StatusCode)
				}
			}
			ts1.Close()
			want, err := json.Marshal(s1.Resilient().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if clean {
				if err := s1.CloseState(); err != nil {
					t.Fatal(err)
				}
			}

			s2 := stateServer(t, dir)
			defer s2.CloseState()
			got, err := json.Marshal(s2.Resilient().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("restored ladder\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func hourRange(from, to int) []int {
	var out []int
	for h := from; h <= to; h++ {
		out = append(out, h)
	}
	return out
}

// TestNonResilientCommitSurvivesRestart pins that a plain (non-resilient)
// decide that commits to the billing position is recorded too: after a
// SIGKILL the restarted server shows the position the first one held.
func TestNonResilientCommitSurvivesRestart(t *testing.T) {
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
	req := resilientReq(3)
	req.Resilient = false
	if resp := postJSON(t, ts1.URL+"/v1/decide", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	var before TariffResponse
	getJSON(t, ts1.URL+"/v1/tariff", &before)
	ts1.Close()
	// Simulate SIGKILL: no CloseState.

	s2 := boot()
	defer s2.CloseState()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var after TariffResponse
	getJSON(t, ts2.URL+"/v1/tariff", &after)
	if !reflect.DeepEqual(after, before) {
		t.Errorf("restored position %+v\nwant %+v", after, before)
	}
}
