package main

import (
	"fmt"
	"time"
)

// latencies are one measured run's per-op samples.
type latencies struct {
	// decide is each decision's wall time and decideCPU the process CPU
	// time it took, client and server; route is each route's wall time.
	decide, decideCPU, route samples
}

func newLatencies(capacity int) *latencies {
	return &latencies{
		decide:    make(samples, 0, capacity),
		decideCPU: make(samples, 0, capacity),
		route:     make(samples, 0, routesPerHour*capacity),
	}
}

// bytes is the heap the sample buffers hold, left out of live_heap_mb.
func (l *latencies) bytes() float64 {
	return float64(8 * (cap(l.decide) + cap(l.decideCPU) + cap(l.route)))
}

// routeTail is the route latency percentile: every workload routes tens of
// thousands of requests a run.
const routeTail = 0.99

// report adds the latency metrics. Route samples are divided by routeDiv to
// give microseconds per request.
func (l *latencies) report(res *result, tail, routeDiv float64, routeNote string) {
	res.add("decide_cpu_ms", "ms", l.decideCPU.quantile(0.5)/1e6, len(l.decideCPU), "p50 process CPU per decision")
	res.addInfo("decide_p50_ms", "ms", l.decide.quantile(0.5)/1e6, len(l.decide), "p50 wall")
	res.addInfo("decide_tail_ms", "ms", l.decide.quantile(tail)/1e6, len(l.decide),
		fmt.Sprintf("%s wall, %d beyond", pctName(tail), l.decide.beyond(tail)))
	res.add("route_p50_us", "us", l.route.quantile(0.5)/routeDiv, len(l.route), "p50 wall"+routeNote)
	res.addInfo("route_tail_us", "us", l.route.quantile(routeTail)/routeDiv, len(l.route),
		fmt.Sprintf("%s wall, %d beyond", pctName(routeTail), l.route.beyond(routeTail)))
	res.notef("decide wall ms %s", ladder(l.decide, 1e6))
	res.notef("decide CPU ms %s", ladder(l.decideCPU, 1e6))
	res.notef("route wall us %s", ladder(l.route, routeDiv))
}

// ladder prints a series' percentile ladder, each rung with the number of
// samples beyond it, so a report shows which tail a run length supports.
func ladder(s samples, unit float64) string {
	out := fmt.Sprintf("n=%d", len(s))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		out += fmt.Sprintf(" %s=%.4g(%d)", pctName(q), s.quantile(q)/unit, s.beyond(q))
	}
	return out
}

func pctName(q float64) string { return fmt.Sprintf("p%g", q*100) }

// setupTimes are the wall and process CPU times of a run's set-ups.
type setupTimes struct{ wall, cpu []time.Duration }

func (s *setupTimes) add(wall, cpu time.Duration) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
}

// report adds setup_s, the median set-up's process CPU time, which is what
// work moved into set-up adds to; the wall time is informational.
func (s setupTimes) report(res *result) {
	res.add("setup_s", "s", medianDuration(s.cpu).Seconds(), len(s.cpu), "median process CPU of the set-ups")
	res.addInfo("setup_wall_s", "s", medianDuration(s.wall).Seconds(), len(s.wall), "median wall of the set-ups")
}
