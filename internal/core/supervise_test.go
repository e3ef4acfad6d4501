package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"billcap/internal/obs"
)

func TestAuditRejectionDemotesToAuditRung(t *testing.T) {
	reg := obs.NewRegistry()
	sys := paperSystem(t, Options{})
	sys.SetMetrics(NewMetrics(reg))
	r := NewResilient(sys, ResilientOptions{})
	r.InjectAuditFailure(3)

	dec := r.Decide(goodInput(3))
	if dec.Degraded != DegradeAudit {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeAudit)
	}
	if dec.Served <= 0 {
		t.Error("audit-demoted hour served nothing")
	}
	// The greedy plan must still be remembered: the next failure should find
	// a stale reserve, not shed.
	r.InjectSolverFailure(4)
	r.InjectFallbackFailure(4)
	if dec := r.Decide(goodInput(4)); dec.Degraded != DegradeStale {
		t.Errorf("hour after audit demotion degraded to %v, want stale reuse", dec.Degraded)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"billcap_audit_rejections_total 1",
		`billcap_decide_degraded_total{rung="audit-reject"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestAuditPassesHealthyDecisions(t *testing.T) {
	reg := obs.NewRegistry()
	sys := paperSystem(t, Options{})
	sys.SetMetrics(NewMetrics(reg))
	r := NewResilient(sys, ResilientOptions{})
	for h := 0; h < 3; h++ {
		in := goodInput(h)
		if h == 1 {
			in.BudgetUSD = 500 // budget-capped branch must also pass audit
		}
		if dec := r.Decide(in); dec.Degraded != DegradeNone {
			t.Fatalf("hour %d: healthy decision rejected by audit: %v", h, dec.Degraded)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "billcap_audit_rejections_total 0") {
		t.Error("audit rejections counted on healthy decisions")
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("core: solver panic: boom"), true},
		{errors.New("some wrapped io weirdness"), true},
		{fmt.Errorf("%w: cap broken", errAuditRejected), false},
		{fmt.Errorf("wrapped: %w", ErrBadInput), false},
		{fmt.Errorf("wrapped: %w", ErrInfeasible), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSleepWithinRespectsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if sleepWithin(ctx, time.Second) {
		t.Error("sleepWithin slept past the deadline")
	}

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	start := time.Now()
	if sleepWithin(cancelled, 10*time.Second) {
		t.Error("sleepWithin ignored cancellation")
	}
	if time.Since(start) > time.Second {
		t.Error("sleepWithin blocked on a cancelled context")
	}
}

func TestResilientSnapshotRestoreRoundTrip(t *testing.T) {
	sys := paperSystem(t, Options{})
	r := NewResilient(sys, ResilientOptions{})
	seed := r.Decide(goodInput(7))
	if seed.Degraded != DegradeNone {
		t.Fatalf("seed hour degraded: %v", seed.Degraded)
	}
	st := r.Snapshot()
	if !reflect.DeepEqual(st.LastGoodLoads, seed.Lambdas()) || st.LastGoodHour != 7 {
		t.Fatalf("snapshot missing last-good state: %+v", st)
	}

	// A fresh ladder restored from the snapshot must serve the stale rung as
	// if it had decided hour 7 itself.
	r2 := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	if err := r2.Restore(st); err != nil {
		t.Fatal(err)
	}
	r2.InjectSolverFailure(8)
	r2.InjectFallbackFailure(8)
	dec := r2.Decide(goodInput(8))
	if dec.Degraded != DegradeStale {
		t.Fatalf("restored ladder degraded to %v, want stale reuse", dec.Degraded)
	}
	if dec.Served <= 0 {
		t.Error("restored stale reuse served nothing")
	}
	r.InjectSolverFailure(8)
	r.InjectFallbackFailure(8)
	if want := r.Decide(goodInput(8)); !reflect.DeepEqual(dec, want) {
		t.Errorf("restored stale reuse %+v, the writing ladder's %+v", dec, want)
	}
}

func TestResilientRestoreRejectsWrongFleet(t *testing.T) {
	sys := paperSystem(t, Options{})
	r := NewResilient(sys, ResilientOptions{})
	if err := r.Restore(ResilientState{LastGoodLoads: make([]float64, 99)}); err == nil {
		t.Fatal("restore accepted a checkpoint from a different fleet")
	}
	if err := r.Restore(ResilientState{LastGoodLoads: []float64{1, math.NaN(), 2}}); err == nil {
		t.Fatal("restore accepted a NaN last-good load")
	}
	if err := r.Restore(ResilientState{LastBudget: -5}); err == nil {
		t.Fatal("restore accepted a negative budget")
	}
}
