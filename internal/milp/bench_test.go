package milp

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBranchAndBound measures a complete solve of a 14-binary random
// problem — roughly the binary count of a 3-site, 5-price-level hour.
func BenchmarkBranchAndBound(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	p, _ := randomBinaryProblem(r, 14, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Solve(); s.Status != Optimal && s.Status != Infeasible {
			b.Fatal(s.Status)
		}
	}
}

// BenchmarkPaperScaleBnB measures the search at the paper's site counts.
// Each size explores a fixed node budget on the deterministic hard knapsack
// at 5·N binaries (the hourly MILP's binary count for N sites), so wall time
// per iteration is directly comparable across sizes and commits.
// cmd/benchmilp runs the same workload standalone and writes BENCH_milp.json.
func BenchmarkPaperScaleBnB(b *testing.B) {
	const maxNodes = 1000
	for _, sites := range []int{5, 10, 20} {
		k := NewHardKnapsack(5*sites, 0)
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				s := k.SolveWithOptions(Options{MaxNodes: maxNodes})
				if s.Status != Optimal && s.Status != Limit {
					b.Fatal(s.Status)
				}
				nodes += s.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
