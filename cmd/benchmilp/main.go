// Command benchmilp measures the sequential branch-and-bound search on the
// deterministic hard-knapsack family at paper scale (5·N binaries for N
// sites, paper §IV) and writes the results as JSON for CI artifacts and
// cross-machine comparison.
//
// Usage:
//
//	benchmilp -out BENCH_milp.json          # full run: 4000-node budget, 3 reps
//	benchmilp -quick -out BENCH_milp.json   # CI smoke: 1000-node budget, 1 rep
//
// Every size explores the same fixed node budget on the same instance, once
// on the production sparse LP core and once on the dense tableau oracle, so
// the sparse row's nodes/s is the search's throughput and the ratio of the
// two wall times is a pure LP-core ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"billcap/internal/decomp"
	"billcap/internal/lp"
	"billcap/internal/milp"
)

// coreResult is one LP core's run of the fixed-budget knapsack instance.
type coreResult struct {
	Core             string  `json:"core"`
	WallMS           float64 `json:"wallMS"`
	Nodes            int     `json:"nodes"`
	NodesPerSec      float64 `json:"nodesPerSec"`
	LPIterations     int     `json:"lpIterations"`
	Refactorizations int     `json:"lpRefactorizations"`
	BasisUpdates     int     `json:"lpBasisUpdates"`
	Status           string  `json:"status"`
	Objective        float64 `json:"objective"`
}

// coreCompare pairs the dense tableau oracle against the sparse revised
// simplex on the same instance and node budget.
type coreCompare struct {
	Sites         int        `json:"sites"`
	Binaries      int        `json:"binaries"`
	Dense         coreResult `json:"dense"`
	Sparse        coreResult `json:"sparse"`
	SparseSpeedup float64    `json:"sparseSpeedup"` // dense wall / sparse wall
}

// fleetResult pits the exact MILP against the Lagrangian dual decomposition
// (internal/decomp) on one milp.NewPaperFleet hour. The exact solve runs
// under the same node budget plus a wall-clock deadline, so at fleet scale it
// reports a limit status with whatever incumbent it found, while the
// decomposition answers with a proven primal–dual gap.
type fleetResult struct {
	Sites    int `json:"sites"`
	Binaries int `json:"binaries"`

	ExactWallMS    float64 `json:"exactWallMS"`
	ExactStatus    string  `json:"exactStatus"`
	ExactNodes     int     `json:"exactNodes"`
	ExactObjective float64 `json:"exactObjective"`

	DecompWallMS     float64 `json:"decompWallMS"`
	DecompStatus     string  `json:"decompStatus"`
	DecompIterations int     `json:"decompIterations"`
	DecompObjective  float64 `json:"decompObjective"`
	DecompDualBound  float64 `json:"decompDualBound"`
	// DecompGapPct is the decomposition's own proven relative gap between its
	// dual bound and recovered primal, in percent.
	DecompGapPct float64 `json:"decompGapPct"`
	// VsExactPct is decomp primal / exact incumbent − 1, in percent; only
	// meaningful as an optimality comparison when ExactStatus is "optimal".
	VsExactPct float64 `json:"vsExactPct"`
}

type report struct {
	Bench      string        `json:"bench"`
	GoMaxProcs int           `json:"goMaxProcs"`
	MaxNodes   int           `json:"maxNodes"`
	Reps       int           `json:"reps"`
	LPCores    []coreCompare `json:"lpCores"`
	Fleet      []fleetResult `json:"fleet,omitempty"`
}

// runFleet measures one fleet size, best-of-reps per solver.
func runFleet(sites, maxNodes, reps int, exactDeadline time.Duration) fleetResult {
	fi := milp.NewPaperFleet(sites, 0)
	fr := fleetResult{Sites: sites, Binaries: 5 * sites}
	for r := 0; r < reps; r++ {
		start := time.Now()
		s := fi.Build().SolveWithOptions(milp.Options{MaxNodes: maxNodes, Deadline: exactDeadline})
		wall := time.Since(start).Seconds() * 1e3
		if fr.ExactWallMS == 0 || wall < fr.ExactWallMS {
			fr.ExactWallMS = wall
			fr.ExactStatus = s.Status.String()
			fr.ExactNodes = s.Nodes
			fr.ExactObjective = s.Objective
		}
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := decomp.Solve(decomp.FromFleet(fi), decomp.Options{})
		wall := time.Since(start).Seconds() * 1e3
		if err != nil {
			log.Fatalf("fleet sites=%d decomp: %v", sites, err)
		}
		if res.Status == decomp.Infeasible {
			log.Fatalf("fleet sites=%d decomp: infeasible", sites)
		}
		if fr.DecompWallMS == 0 || wall < fr.DecompWallMS {
			fr.DecompWallMS = wall
			fr.DecompStatus = res.Status.String()
			fr.DecompIterations = res.Iterations
			fr.DecompObjective = res.Objective
			fr.DecompDualBound = res.DualBound
			fr.DecompGapPct = 100 * res.Gap
		}
	}
	if fr.ExactObjective != 0 {
		fr.VsExactPct = 100 * (fr.DecompObjective/fr.ExactObjective - 1)
	}
	return fr
}

// runCore solves the instance best-of-reps on one LP core, sequentially.
func runCore(sites, maxNodes, reps int, core lp.Core) coreResult {
	k := milp.NewHardKnapsack(5*sites, 0)
	best := coreResult{Core: core.String()}
	for r := 0; r < reps; r++ {
		start := time.Now()
		s := k.SolveWithOptions(milp.Options{MaxNodes: maxNodes, LPCore: core})
		wall := time.Since(start)
		if s.Status != milp.Optimal && s.Status != milp.Limit {
			log.Fatalf("core %v sites=%d: unexpected status %v", core, sites, s.Status)
		}
		if best.WallMS == 0 || wall.Seconds()*1e3 < best.WallMS {
			best.WallMS = wall.Seconds() * 1e3
			best.Nodes = s.Nodes
			best.NodesPerSec = float64(s.Nodes) / wall.Seconds()
			best.LPIterations = s.Pivots
			best.Refactorizations = s.LPRefactorizations
			best.BasisUpdates = s.LPBasisUpdates
			best.Status = s.Status.String()
			best.Objective = s.Objective
		}
	}
	return best
}

func main() {
	out := flag.String("out", "BENCH_milp.json", "path to write the JSON report")
	quick := flag.Bool("quick", false, "CI smoke mode: smaller node budget, one repetition")
	gate := flag.Bool("gate", false,
		"exit nonzero if the sparse core is slower (nodes/sec) than the dense oracle on the largest instance, or if the fleet decomposition gap at N=50 exceeds 1%")
	fleet := flag.Bool("fleet", false,
		"also run the fleet section: exact MILP vs Lagrangian dual decomposition on milp.NewPaperFleet at N=50/200/500")
	flag.Parse()

	maxNodes, reps := 4000, 3
	if *quick {
		maxNodes, reps = 1000, 1
	}

	rep := report{
		Bench:      "milp sequential branch and bound, hard knapsack at 5·N binaries",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		MaxNodes:   maxNodes,
		Reps:       reps,
	}
	gateOK := true
	for _, sites := range []int{5, 10, 20} {
		cc := coreCompare{Sites: sites, Binaries: 5 * sites}
		cc.Dense = runCore(sites, maxNodes, reps, lp.CoreDense)
		cc.Sparse = runCore(sites, maxNodes, reps, lp.CoreSparse)
		cc.SparseSpeedup = cc.Dense.WallMS / cc.Sparse.WallMS
		rep.LPCores = append(rep.LPCores, cc)
		fmt.Printf("sites=%-3d sparse=%8.1fms (%d nodes, %8.0f nodes/s)  dense oracle=%8.1fms (%8.0f nodes/s)  speedup=%.2f\n",
			sites, cc.Sparse.WallMS, cc.Sparse.Nodes, cc.Sparse.NodesPerSec, cc.Dense.WallMS, cc.Dense.NodesPerSec, cc.SparseSpeedup)
		if sites == 20 && cc.Sparse.NodesPerSec < cc.Dense.NodesPerSec {
			gateOK = false
		}
	}

	fleetGateOK := true
	if *fleet {
		exactDeadline := 10 * time.Second
		if *quick {
			exactDeadline = 3 * time.Second
		}
		for _, sites := range []int{50, 200, 500} {
			fr := runFleet(sites, maxNodes, reps, exactDeadline)
			rep.Fleet = append(rep.Fleet, fr)
			fmt.Printf("fleet sites=%-4d exact=%9.1fms (%s, %d nodes)  decomp=%8.1fms (%s, %d iters)  gap=%.3f%%  vsExact=%+.3f%%\n",
				sites, fr.ExactWallMS, fr.ExactStatus, fr.ExactNodes,
				fr.DecompWallMS, fr.DecompStatus, fr.DecompIterations, fr.DecompGapPct, fr.VsExactPct)
			if sites == 50 && fr.DecompGapPct > 1 {
				fleetGateOK = false
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d)\n", *out, rep.GoMaxProcs)
	if *gate && !gateOK {
		log.Fatal("gate: sparse core slower than the dense oracle at N=20")
	}
	if *gate && !fleetGateOK {
		log.Fatal("gate: fleet decomposition gap above 1% at N=50")
	}
}
