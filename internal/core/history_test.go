package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// simWeek builds a deterministic pseudo-diurnal week of inputs that walks
// through every branch of the two-step algorithm: abundant and tight budgets,
// light and heavy hours, and a few single-site outages.
func simWeek(seed int64, tightBudget, looseBudget float64) []HourInput {
	r := rand.New(rand.NewSource(seed))
	ins := make([]HourInput, 168)
	for h := range ins {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(h%24)/24)
		total := 1.4e12 * diurnal * (0.9 + 0.2*r.Float64())
		in := HourInput{
			Hour:          h,
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*r.Float64()),
			DemandMW: []float64{
				150 + 60*r.Float64(),
				160 + 60*r.Float64(),
				140 + 60*r.Float64(),
			},
			BudgetUSD: looseBudget,
		}
		if h%3 == 1 {
			in.BudgetUSD = tightBudget
		}
		if h%41 == 40 {
			in.Down = []bool{false, false, false}
			in.Down[r.Intn(3)] = true
		}
		ins[h] = in
	}
	return ins
}

// outcome is one hour's decision with its wall-clock field zeroed, or its
// error text, in a form reflect.DeepEqual can compare across runs.
type outcome struct {
	dec Decision
	err string
}

func outcomeOf(d Decision, err error) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	}
	d.Solver.WallTime = 0
	return outcome{dec: d}
}

// TestWeekDecisionsAreHistoryFree pins that a decision is a function of its
// hour's input alone, which is what replaying an hour from the state
// directory and a crash-restart that matches an uninterrupted run both
// need. A seeded week is decided three ways: in order by one long-lived
// System, hour by hour by a fresh System each, and all at once through
// DecideBatch on the long-lived System after it has seen the whole week.
// The three must agree exactly. Run under -race in CI.
func TestWeekDecisionsAreHistoryFree(t *testing.T) {
	long := paperSystem(t, Options{})

	// Calibrate the tight budget at half of an average hour's uncapped cost,
	// so step 2 binds often, and the loose one far above any hour's cost.
	probe := HourInput{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	d, err := long.DecideHour(probe)
	if err != nil {
		t.Fatal(err)
	}
	tight, loose := d.PredictedCostUSD*0.5, d.PredictedCostUSD*10
	week := simWeek(7, tight, loose)

	inOrder := make([]outcome, len(week))
	steps := map[Step]int{}
	for h, in := range week {
		d, err := long.DecideHour(in)
		inOrder[h] = outcomeOf(d, err)
		if err == nil {
			steps[d.Step]++
		}
	}
	if steps[StepCostMin] == 0 || steps[StepBudgetCapped] == 0 {
		t.Fatalf("the week took branches %v; want both cost-min and budget-capped hours", steps)
	}

	batch, errs := long.DecideBatch(context.Background(), week)
	for h, in := range week {
		fresh, err := paperSystem(t, Options{}).DecideHour(in)
		for _, c := range []struct {
			name string
			got  outcome
		}{
			{"fresh System", outcomeOf(fresh, err)},
			{"DecideBatch", outcomeOf(batch[h], errs[h])},
		} {
			if !reflect.DeepEqual(c.got, inOrder[h]) {
				t.Errorf("hour %d: %s decided\n%s\nbut the long-lived System decided\n%s",
					h, c.name, describe(c.got), describe(inOrder[h]))
			}
		}
	}
}

func describe(o outcome) string {
	if o.err != "" {
		return "error " + o.err
	}
	return fmt.Sprintf("%+v", o.dec)
}
