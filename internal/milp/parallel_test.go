package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"billcap/internal/lp"
)

// The search itself is sequential, but callers run many searches at once:
// core.DecideBatch fans independent hours out over GOMAXPROCS goroutines.
// These tests pin that concurrent solves do not interfere — each answers
// exactly as it would alone, and each honours its own limits. Run under
// -race in CI, they are also the data-race probe for any state the solver
// might share between calls.

// parallelSolves is the number of concurrent solves each test starts.
const parallelSolves = 4

// solveConcurrently builds one problem per goroutine with build(i), solves
// them all at once, and returns the answers index-aligned with i.
func solveConcurrently(n int, build func(i int) *Problem, opt Options) []Solution {
	sols := make([]Solution, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sols[i] = build(i).SolveWithOptions(opt)
		}(i)
	}
	wg.Wait()
	return sols
}

// sameSolution reports whether two answers to the same problem are
// identical: status, tree size, pivots, objective and incumbent, bit for bit.
func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Nodes != b.Nodes || a.Pivots != b.Pivots {
		return false
	}
	if a.Objective != b.Objective && !(math.IsNaN(a.Objective) && math.IsNaN(b.Objective)) {
		return false
	}
	if len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesSequentialProperty is the concurrent-vs-sequential
// equivalence property: on randomized paper-scale instances, copies of the
// same problem solved on concurrent goroutines must each reproduce the lone
// sequential answer bit for bit, and that answer must be a feasible,
// exactly-integral incumbent.
func TestParallelMatchesSequentialProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		build := func(int) *Problem {
			r := rand.New(rand.NewSource(seed))
			nb := 8 + r.Intn(8) // 8..15 binaries ≈ a 2-3 site hour
			nc := r.Intn(4)
			p, _ := randomBinaryProblem(r, nb, nc)
			return p
		}
		p := build(0)
		seq := p.Solve()
		for i, par := range solveConcurrently(parallelSolves, build, Options{}) {
			if !sameSolution(par, seq) {
				t.Logf("seed %d solve %d: %v nodes %d obj %v vs sequential %v nodes %d obj %v",
					seed, i, par.Status, par.Nodes, par.Objective, seq.Status, seq.Nodes, seq.Objective)
				return false
			}
		}
		if seq.Status != Optimal {
			return true
		}
		if v := p.CheckFeasible(seq.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: incumbent infeasible: %v", seed, v)
			return false
		}
		for j := range seq.X {
			if p.IsInteger(j) && seq.X[j] != 0 && seq.X[j] != 1 {
				t.Logf("seed %d: binary %d = %v not integral", seed, j, seq.X[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDeadlineReturnsFeasibleIncumbent: concurrent solves that each
// run out of their deadline must each answer TimeLimit with a feasible
// incumbent and a nonnegative gap, well inside the wall-clock bound.
func TestParallelDeadlineReturnsFeasibleIncumbent(t *testing.T) {
	ks := make([]KnapsackInstance, parallelSolves)
	for i := range ks {
		ks[i] = NewHardKnapsack(40, uint64(i))
	}
	sols := solveConcurrently(len(ks), func(i int) *Problem { return ks[i].Problem },
		Options{Deadline: 2 * time.Millisecond})
	for i, sol := range sols {
		if sol.Status != TimeLimit {
			t.Errorf("solve %d: status = %v, want time-limit (nodes=%d elapsed=%v)", i, sol.Status, sol.Nodes, sol.Elapsed)
			continue
		}
		if sol.X == nil {
			t.Errorf("solve %d: deadline answer carries no incumbent", i)
			continue
		}
		if !ks[i].CheckSolution(sol.X, 1e-6) {
			t.Errorf("solve %d: deadline incumbent infeasible", i)
		}
		if sol.Gap < 0 {
			t.Errorf("solve %d: negative remaining gap %v", i, sol.Gap)
		}
		if sol.Elapsed > 2*time.Second {
			t.Errorf("solve %d: deadline solve took %v — the deadline did not bound the search", i, sol.Elapsed)
		}
	}
}

// TestParallelCancelAbortsSearch: one cancel channel shared by concurrent
// solves — a batch request's context — must stop every one of them when it
// closes mid-search, each with the usual incumbent manufacture.
func TestParallelCancelAbortsSearch(t *testing.T) {
	ks := make([]KnapsackInstance, parallelSolves)
	for i := range ks {
		ks[i] = NewHardKnapsack(40, uint64(i))
	}
	cancel := make(chan struct{})
	done := make(chan []Solution, 1)
	go func() {
		done <- solveConcurrently(len(ks), func(i int) *Problem { return ks[i].Problem },
			Options{Cancel: cancel})
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)

	var sols []Solution
	select {
	case sols = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("solves still running 10s after cancel — cancellation did not reach them")
	}
	for i, sol := range sols {
		if sol.Status != TimeLimit {
			t.Errorf("solve %d: status = %v, want time-limit on cancel (nodes=%d)", i, sol.Status, sol.Nodes)
			continue
		}
		if sol.X == nil {
			t.Errorf("solve %d: cancel returned no incumbent", i)
			continue
		}
		if !ks[i].CheckSolution(sol.X, 1e-6) {
			t.Errorf("solve %d: cancel incumbent infeasible", i)
		}
	}
}

// TestParallelTerminalStatuses pins the pass-through of root-level outcomes
// when integer-infeasible and unbounded problems are solved side by side.
func TestParallelTerminalStatuses(t *testing.T) {
	build := func(i int) *Problem {
		p := NewProblem()
		if i%2 == 0 {
			x := p.AddIntVar("x", 1)
			p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.EQ, 3)
		} else {
			y := p.AddIntVar("y", -1)
			p.AddConstraint([]lp.Term{{Var: y, Coef: 1}}, lp.GE, 0)
		}
		return p
	}
	for i, s := range solveConcurrently(2*parallelSolves, build, Options{}) {
		want := Infeasible
		if i%2 == 1 {
			want = Unbounded
		}
		if s.Status != want {
			t.Errorf("solve %d: status %v, want %v", i, s.Status, want)
		}
	}
}

// TestParallelMaxNodes: node caps are per solve. Concurrent capped solves of
// the same hard instance must each stop at the cap with a valid limit answer,
// and all explore the same tree.
func TestParallelMaxNodes(t *testing.T) {
	const maxNodes = 50
	k := NewHardKnapsack(30, 5)
	sols := solveConcurrently(parallelSolves, func(int) *Problem { return NewHardKnapsack(30, 5).Problem },
		Options{MaxNodes: maxNodes})
	for i, sol := range sols {
		if sol.Status != Limit {
			t.Errorf("solve %d: status %v under a %d-node cap, want node-limit", i, sol.Status, maxNodes)
			continue
		}
		if sol.X != nil && (sol.Gap < 0 || math.IsInf(sol.Gap, 1)) {
			t.Errorf("solve %d: incumbent present but gap = %v", i, sol.Gap)
		}
		if sol.X == nil && !math.IsInf(sol.Gap, 1) {
			t.Errorf("solve %d: no incumbent but gap %v, want +Inf", i, sol.Gap)
		}
		if sol.X != nil && !k.CheckSolution(sol.X, 1e-6) {
			t.Errorf("solve %d: limit incumbent infeasible", i)
		}
		// The cap is checked between expansions: at most the two children
		// of the last expanded node past it.
		if sol.Nodes > maxNodes+2 {
			t.Errorf("solve %d: nodes = %d, past the cap of %d", i, sol.Nodes, maxNodes)
		}
		if !sameSolution(sol, sols[0]) {
			t.Errorf("solve %d: nodes %d obj %v, diverges from solve 0 (nodes %d obj %v)",
				i, sol.Nodes, sol.Objective, sols[0].Nodes, sols[0].Objective)
		}
	}
}
