package lp

import (
	"math/rand"
	"testing"
)

func benchProblem(seed int64) (*Problem, []float64) {
	r := rand.New(rand.NewSource(seed))
	return randomFeasibleLP(r)
}

// BenchmarkColdSolve measures a full two-phase solve of a random dense LP.
func BenchmarkColdSolve(b *testing.B) {
	p, _ := benchProblem(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Solve(); s.Status != Optimal {
			b.Fatal(s.Status)
		}
	}
}

// BenchmarkWarmReSolve measures a dual-simplex re-solve with one extra
// bound row — the per-node cost inside branch and bound.
func BenchmarkWarmReSolve(b *testing.B) {
	p, _ := benchProblem(42)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal {
		b.Fatal(root.Status)
	}
	row := []Bound{{Var: 0, Rel: LE, Value: root.X[0] / 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := w.ReSolve(row); s.Status != Optimal && s.Status != Infeasible {
			b.Fatal(s.Status)
		}
	}
}
