package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWarmStartBasic(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18; optimum 36 at (2,6).
	p := NewProblem()
	p.SetMaximize(true)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, 4)
	p.AddConstraint([]Term{{Var: y, Coef: 2}}, LE, 12)
	p.AddConstraint([]Term{{Var: x, Coef: 3}, {Var: y, Coef: 2}}, LE, 18)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal || !near(root.Objective, 36, 1e-8) {
		t.Fatalf("root: %v obj=%v", root.Status, root.Objective)
	}
	// Branch x ≤ 1: optimum becomes 3 + 5·6 = 33.
	s := w.ReSolve([]ExtraRow{{Terms: []Term{{Var: x, Coef: 1}}, Rel: LE, RHS: 1}})
	if s.Status != Optimal || !near(s.Objective, 33, 1e-8) {
		t.Fatalf("x≤1: %v obj=%v, want 33", s.Status, s.Objective)
	}
	// Branch x ≥ 3: y ≤ (18−9)/2 = 4.5 → 9 + 22.5 = 31.5.
	s = w.ReSolve([]ExtraRow{{Terms: []Term{{Var: x, Coef: 1}}, Rel: GE, RHS: 3}})
	if s.Status != Optimal || !near(s.Objective, 31.5, 1e-8) {
		t.Fatalf("x≥3: %v obj=%v, want 31.5", s.Status, s.Objective)
	}
	// Contradictory bounds → infeasible.
	s = w.ReSolve([]ExtraRow{
		{Terms: []Term{{Var: x, Coef: 1}}, Rel: GE, RHS: 3},
		{Terms: []Term{{Var: x, Coef: 1}}, Rel: LE, RHS: 2},
	})
	if s.Status != Infeasible {
		t.Fatalf("contradiction: %v, want infeasible", s.Status)
	}
	// No extra rows → the root solution itself.
	s = w.ReSolve(nil)
	if !near(s.Objective, 36, 1e-9) {
		t.Fatalf("empty extra: obj=%v", s.Objective)
	}
}

func TestWarmStartOnInfeasibleBase(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, GE, 5)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, 3)
	w, sol := p.SolveForWarmStart(Options{})
	if w != nil || sol.Status != Infeasible {
		t.Fatalf("got warm start %v, status %v for infeasible base", w != nil, sol.Status)
	}
}

func TestWarmStartWithEqualityBase(t *testing.T) {
	// Base problem uses EQ rows (artificials in the tableau); warm restarts
	// must keep them barred.
	p := NewProblem()
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, EQ, 10)
	p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, LE, 2)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal || !near(root.Objective, 24, 1e-8) {
		t.Fatalf("root: %v obj=%v", root.Status, root.Objective)
	}
	// Add y ≥ 7: x = 3, y = 7 → 6+21 = 27.
	s := w.ReSolve([]ExtraRow{{Terms: []Term{{Var: y, Coef: 1}}, Rel: GE, RHS: 7}})
	if s.Status != Optimal || !near(s.Objective, 27, 1e-8) {
		t.Fatalf("y≥7: %v obj=%v, want 27", s.Status, s.Objective)
	}
	if v := p.CheckFeasible(s.X, 1e-7); len(v) != 0 {
		t.Fatalf("warm solution violates base rows: %v", v)
	}
}

// baseBasis copies the optimal basis of the warm start's base problem, one
// column per row in the recording core's own numbering.
func baseBasis(w *WarmStart) []int {
	if w.core == CoreSparse {
		return append([]int(nil), w.rev.basis...)
	}
	return append([]int(nil), w.base.basis...)
}

// TestReSolveLeavesBaseIntact verifies that re-solves never write through to
// the recorded base state: after heavy use the warm start still reports the
// same root and basis, and answers a fresh re-solve exactly as before —
// the property every branch-and-bound node relies on when it re-solves from
// the root. Both cores are exercised.
func TestReSolveLeavesBaseIntact(t *testing.T) {
	for _, core := range []Core{CoreSparse, CoreDense} {
		t.Run(core.String(), func(t *testing.T) {
			p := NewProblem()
			p.SetMaximize(true)
			x := p.AddVar("x", 3)
			y := p.AddVar("y", 5)
			p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, 4)
			p.AddConstraint([]Term{{Var: y, Coef: 2}}, LE, 12)
			p.AddConstraint([]Term{{Var: x, Coef: 3}, {Var: y, Coef: 2}}, LE, 18)
			w, root := p.SolveForWarmStart(Options{Core: core})
			if root.Status != Optimal {
				t.Fatalf("root: %v", root.Status)
			}
			basis := baseBasis(w)
			tight := []ExtraRow{{Terms: []Term{{Var: x, Coef: 1}}, Rel: LE, RHS: 1}}
			loose := []ExtraRow{{Terms: []Term{{Var: y, Coef: 1}}, Rel: LE, RHS: 3}}
			for i := 0; i < 50; i++ {
				if s := w.ReSolve(tight); s.Status != Optimal || !near(s.Objective, 33, 1e-8) {
					t.Fatalf("resolve %d (x ≤ 1): %v obj=%v, want 33", i, s.Status, s.Objective)
				}
				if s := w.ReSolve(loose); s.Status != Optimal || !near(s.Objective, 27, 1e-8) {
					t.Fatalf("resolve %d (y ≤ 3): %v obj=%v, want 27", i, s.Status, s.Objective)
				}
			}
			if w.Root().Objective != root.Objective {
				t.Fatalf("root objective moved: %v → %v", root.Objective, w.Root().Objective)
			}
			for i, b := range baseBasis(w) {
				if b != basis[i] {
					t.Fatalf("base basis moved at row %d: %v → %v", i, basis, baseBasis(w))
				}
			}
		})
	}
}

// TestWarmMatchesColdProperty re-solves random feasible LPs with random
// extra bound rows both warm and cold; statuses and objectives must agree.
func TestWarmMatchesColdProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		w, root := p.SolveForWarmStart(Options{})
		if root.Status != Optimal {
			return true // nothing to warm-start; covered elsewhere
		}
		// 1-3 random single-variable bounds around the optimum.
		var extra []ExtraRow
		q := p.Clone()
		for k := 0; k < 1+r.Intn(3); k++ {
			v := r.Intn(p.NumVars())
			val := root.X[v]
			var row ExtraRow
			if r.Intn(2) == 0 {
				row = ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: math.Floor(val)}
			} else {
				row = ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: GE, RHS: math.Ceil(val)}
			}
			extra = append(extra, row)
			q.AddConstraint(row.Terms, row.Rel, row.RHS)
		}
		warm := w.ReSolve(extra)
		cold := q.Solve()
		if warm.Status != cold.Status {
			t.Logf("seed %d: warm %v vs cold %v", seed, warm.Status, cold.Status)
			return false
		}
		if warm.Status != Optimal {
			return true
		}
		if !near(warm.Objective, cold.Objective, 1e-6*(1+math.Abs(cold.Objective))) {
			t.Logf("seed %d: warm obj %v vs cold %v", seed, warm.Objective, cold.Objective)
			return false
		}
		if v := q.CheckFeasible(warm.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: warm solution infeasible: %v", seed, v)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmIsCheaperThanCold(t *testing.T) {
	// The point of warm starting: adding one bound row should cost far
	// fewer pivots than a cold two-phase solve on a nontrivial problem.
	r := rand.New(rand.NewSource(11))
	var warmPiv, coldPiv int
	for trial := 0; trial < 30; trial++ {
		p, _ := randomFeasibleLP(r)
		w, root := p.SolveForWarmStart(Options{})
		if root.Status != Optimal || p.NumVars() == 0 {
			continue
		}
		v := r.Intn(p.NumVars())
		row := ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: root.X[v] / 2}
		warm := w.ReSolve([]ExtraRow{row})
		q := p.Clone()
		q.AddConstraint(row.Terms, row.Rel, row.RHS)
		cold := q.Solve()
		if warm.Status == Optimal && cold.Status == Optimal {
			warmPiv += warm.Pivots
			coldPiv += cold.Pivots
		}
	}
	if coldPiv == 0 {
		t.Skip("no optimal pairs")
	}
	if warmPiv*2 >= coldPiv {
		t.Errorf("warm pivots %d not well below cold %d", warmPiv, coldPiv)
	}
}
