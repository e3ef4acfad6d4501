// Command routebench measures the request data plane: one capper decision is
// compiled into a dispatch.Snapshot — exactly as the API's /v1/route path
// does — and hammered from many goroutines, reporting routes/sec for the
// per-request path (one atomic fetch-add + array read per route) and the
// closed-form batch path, plus the median time to compile the snapshot.
//
// Usage:
//
//	routebench -out BENCH_milp.json            # 2 s measurement, all cores
//	routebench -gate -duration 1s              # CI smoke: fail below 1M routes/s
//
// The report is merged into the benchmilp JSON under a "routes" key, so one
// artifact carries both the solver and data-plane numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/dispatch"
	"billcap/internal/pricing"
)

type pathResult struct {
	Routes       int64   `json:"routes"`
	WallMS       float64 `json:"wallMS"`
	RoutesPerSec float64 `json:"routesPerSec"`
}

type report struct {
	Bench        string     `json:"bench"`
	GoMaxProcs   int        `json:"goMaxProcs"`
	Sites        int        `json:"sites"`
	Goroutines   int        `json:"goroutines"`
	BatchSize    int        `json:"batchSize"`
	PatternLen   int        `json:"patternLen"`
	CompileUS    float64    `json:"compileUS"` // median NewSnapshot wall time
	SolvedHour   bool       `json:"solvedHour"`
	PerRequest   pathResult `json:"perRequest"`
	Batch        pathResult `json:"batch"`
	MinGateRate  float64    `json:"minGateRoutesPerSec"`
	Conservation bool       `json:"conservation"` // counters summed to routes issued
}

// decision solves one uncapped paper hour at ~60% of capacity and returns
// its per-site loads and ordinary gate pair, proving the full
// decision→snapshot path. For fleet sizes beyond the paper's three sites the
// loads are synthesized instead (the data plane does not care where the
// weights came from).
func decision(sites int) (lambdas []float64, served, arrived float64, solved bool) {
	if sites == 3 {
		sys, err := core.NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		total := 0.6 * sys.MaxThroughput()
		in := core.HourInput{
			TotalLambda:   total,
			PremiumLambda: 0.8 * total,
			DemandMW:      []float64{170, 190, 150},
			BudgetUSD:     math.Inf(1),
		}
		dec, err := sys.DecideHour(in)
		if err != nil {
			log.Fatal(err)
		}
		return dec.Lambdas(), dec.ServedOrdinary, total - in.PremiumLambda, true
	}
	lambdas = make([]float64, sites)
	for i := range lambdas {
		lambdas[i] = float64(1 + (i*7919)%97)
	}
	return lambdas, 80, 100, false
}

func compile(lambdas []float64, served, arrived float64) *dispatch.Snapshot {
	snap, err := dispatch.NewSnapshot(lambdas, served, arrived, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	return snap
}

// compileRuns is how many NewSnapshot calls compileMedianUS times.
const compileRuns = 21

// compileMedianUS is the median wall time of compileRuns NewSnapshot calls
// on one decision, in microseconds.
func compileMedianUS(lambdas []float64, served, arrived float64) float64 {
	times := make([]float64, compileRuns)
	for i := range times {
		start := time.Now()
		compile(lambdas, served, arrived)
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	sort.Float64s(times)
	return times[compileRuns/2]
}

// drive runs fn from g goroutines until the duration elapses, returning the
// total units completed and the wall time.
func drive(g int, d time.Duration, fn func() int64) (int64, time.Duration) {
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				n += fn()
			}
			total.Add(n)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return total.Load(), time.Since(start)
}

func main() {
	sites := flag.Int("sites", 3, "fleet size (3 solves a real paper hour; larger synthesizes loads)")
	goroutines := flag.Int("goroutines", runtime.GOMAXPROCS(0), "concurrent routing goroutines")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per path")
	batch := flag.Int("batch", 128, "requests per RouteBatch call in the batch path")
	out := flag.String("out", "BENCH_milp.json", "benchmark JSON to merge the \"routes\" section into")
	gate := flag.Bool("gate", false, "exit nonzero below -min-routes-per-sec on the per-request path")
	minRate := flag.Float64("min-routes-per-sec", 1e6, "gate threshold for the per-request path")
	flag.Parse()

	if *sites < 1 || *goroutines < 1 || *batch < 1 || *duration <= 0 {
		log.Fatalf("bad flags: sites=%d goroutines=%d batch=%d duration=%v", *sites, *goroutines, *batch, *duration)
	}

	lambdas, served, arrived, solved := decision(*sites)
	snap := compile(lambdas, served, arrived)
	rep := report{
		Bench:       "lock-free routing snapshot (Webster wheel), routes/sec",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Sites:       *sites,
		Goroutines:  *goroutines,
		BatchSize:   *batch,
		PatternLen:  snap.PatternLen(),
		CompileUS:   compileMedianUS(lambdas, served, arrived),
		SolvedHour:  solved,
		MinGateRate: *minRate,
	}
	fmt.Printf("compile: %d-slot wheel in %.1f µs (median of %d)\n", rep.PatternLen, rep.CompileUS, compileRuns)

	routes, wall := drive(*goroutines, *duration, func() int64 {
		snap.Route()
		return 1
	})
	rep.PerRequest = pathResult{
		Routes: routes, WallMS: wall.Seconds() * 1e3,
		RoutesPerSec: float64(routes) / wall.Seconds(),
	}
	fmt.Printf("per-request: %d routes in %v from %d goroutines = %.0f routes/s\n",
		routes, wall.Round(time.Millisecond), *goroutines, rep.PerRequest.RoutesPerSec)

	bsnap := compile(lambdas, served, arrived)
	n := int64(*batch)
	broutes, bwall := drive(*goroutines, *duration, func() int64 {
		bsnap.RouteBatch(*batch)
		return n
	})
	rep.Batch = pathResult{
		Routes: broutes, WallMS: bwall.Seconds() * 1e3,
		RoutesPerSec: float64(broutes) / bwall.Seconds(),
	}
	fmt.Printf("batch(%d):   %d routes in %v from %d goroutines = %.0f routes/s\n",
		*batch, broutes, bwall.Round(time.Millisecond), *goroutines, rep.Batch.RoutesPerSec)

	// Conservation audit: after quiescence the striped counters must sum to
	// exactly the routes issued on each snapshot.
	rep.Conservation = sumCounts(snap) == routes && sumCounts(bsnap) == broutes
	if !rep.Conservation {
		log.Fatalf("conservation failed: per-request %d/%d, batch %d/%d",
			sumCounts(snap), routes, sumCounts(bsnap), broutes)
	}

	merge(*out, rep)
	fmt.Printf("merged \"routes\" into %s\n", *out)
	if *gate && rep.PerRequest.RoutesPerSec < *minRate {
		log.Fatalf("gate: %.0f routes/s below the %.0f floor", rep.PerRequest.RoutesPerSec, *minRate)
	}
}

func sumCounts(s *dispatch.Snapshot) int64 {
	var t int64
	for _, c := range s.SiteCounts() {
		t += c
	}
	return t
}

// merge folds the routes report into the (possibly benchmilp-written) JSON
// file without clobbering the solver sections.
func merge(path string, rep report) {
	doc := map[string]any{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &doc); err != nil {
			log.Printf("routebench: %s is not JSON (%v); rewriting", path, err)
			doc = map[string]any{}
		}
	}
	doc["routes"] = rep
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		log.Fatal(err)
	}
}
