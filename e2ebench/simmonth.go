package main

import (
	"fmt"
	"time"

	"billcap/internal/core"
	"billcap/internal/sim"
)

// timedDecider times every hour sim.Run asks of the wrapped strategy, in
// wall time and, when cpu is non-nil, process CPU time.
type timedDecider struct {
	inner     sim.Decider
	wall, cpu *samples
}

func (d *timedDecider) Name() string { return d.inner.Name() }

func (d *timedDecider) Decide(in core.HourInput) (core.Decision, error) {
	start, cpu0 := time.Now(), cpuTime()
	dec, err := d.inner.Decide(in)
	d.wall.add(time.Since(start))
	if d.cpu != nil {
		d.cpu.add(cpuTime() - cpu0)
	}
	return dec, err
}

// replayRequests is how many requests sim.ReplayRoutes sends through each
// simulated hour's routing table: all of them take the one-at-a-time path.
const replayRequests = 512

// newDecider builds the strategy the workload simulates: the paper's Cost
// Capping with the workload's solver options.
func newDecider(st *stream) (sim.Decider, error) {
	if !st.decompose {
		return sim.NewCostCapping(st.dcs, st.policies)
	}
	return sim.NewCostCappingVariant("Cost Capping (decomposed)", st.dcs, st.policies, core.Options{Decompose: true})
}

// runSim is a measured run of sim-month: the paper month replayed through
// sim.Run until the time is up, each month checked against the first.
func runSim(st *stream, seconds time.Duration) (*result, error) {
	res := &result{}
	var setups setupTimes
	var dec sim.Decider
	var ref sim.Result
	for rep := 0; rep < setupReps; rep++ {
		start, cpu0 := time.Now(), cpuTime()
		d, err := newDecider(st)
		if err != nil {
			return nil, err
		}
		// Warm-up is one whole month; it is also the reference the
		// measured months must repeat bit for bit.
		r, err := sim.Run(st.month, d)
		if err != nil {
			return nil, err
		}
		setups.add(time.Since(start), cpuTime()-cpu0)
		dec, ref = d, r
		for _, err := range checkMonth(r, nil, st.length, true) {
			res.op(err)
		}
	}

	// Route samples are per hour: one replay of replayRequests requests.
	lat := newLatencies(1 << 17)
	timed := &timedDecider{inner: dec, wall: &lat.decide, cpu: &lat.decideCPU}
	var q quality
	months := 0
	var simWall, simCPU time.Duration
	deadline := time.Now().Add(seconds)
	for months == 0 || time.Now().Before(deadline) {
		start, cpu0 := time.Now(), cpuTime()
		r, err := sim.Run(st.month, timed)
		simWall += time.Since(start)
		simCPU += cpuTime() - cpu0
		if err != nil {
			return nil, err
		}
		months++
		for _, err := range checkMonth(r, &ref, st.length, true) {
			res.op(err)
		}
		if months == 1 {
			q = monthQuality(r)
		}
		for h := range r.Hours {
			start := time.Now()
			rep, err := sim.ReplayRoutes(sim.Result{Hours: r.Hours[h : h+1]}, replayRequests)
			lat.route.add(time.Since(start))
			if err == nil && (rep.Hours != 1 || rep.RoutedRequests+rep.DroppedOrdinary != replayRequests) {
				err = fmt.Errorf("route replay: hour %d routed %d and dropped %d of %d requests over %d tables",
					h, rep.RoutedRequests, rep.DroppedOrdinary, replayRequests, rep.Hours)
			}
			res.op(err)
		}
	}
	heap := liveHeapBytes() - lat.bytes()

	setups.report(res)
	lat.report(res, st.tail, 1e3*replayRequests,
		fmt.Sprintf(" per request of sim.ReplayRoutes, %d requests an hour, table compile included", replayRequests))
	res.addInfo("hours_per_s", "1/s", float64(months*st.length)/simWall.Seconds(), months*st.length,
		fmt.Sprintf("simulated hours over sim.Run wall time, %d months", months))
	res.add("cpu_ms_per_hour", "ms", simCPU.Seconds()*1e3/float64(months*st.length), months*st.length,
		"process CPU per simulated hour inside sim.Run")
	addQuality(res, q)
	res.add("live_heap_mb", "MB", heap/(1<<20), 1, "after forced GC, latency buffers excluded")
	return res, nil
}

// monthQuality reads the answer-quality metrics off one simulated month;
// its cost is the realized bill including cap penalties.
func monthQuality(r sim.Result) quality {
	q := quality{
		hours:   len(r.Hours),
		cost:    r.TotalBillUSD(),
		served:  r.ServedPremium + r.ServedOrdinary,
		arrived: r.ArrivedPremium + r.ArrivedOrdinary,
		optimal: r.DegradedHours[core.DegradeNone],
	}
	return q
}
