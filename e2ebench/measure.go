package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"billcap/internal/api"
)

// setupReps is how many times a run sets the stack up; setup_s is their
// median and the last one serves the measured phase.
const setupReps = 9

// routeBodies are the two /v1/route request bodies, encoded once.
var routeBodies = [2][]byte{[]byte(`{"class":"ordinary"}`), []byte(`{"class":"premium"}`)}

// live is one set-up stack with its answer checker.
type live struct {
	*stack
	chk *checker
}

// setUp builds a stack over a fresh state directory and warms it up with the
// stream's warm-up hours, checking every answer.
func setUp(st *stream, dir string, t *tally) (*live, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	stk, err := startStack(st, dir)
	if err != nil {
		return nil, err
	}
	var sites []api.SiteInfo
	if err := stk.getJSON("/v1/sites", &sites); err != nil {
		stk.close()
		return nil, err
	}
	chk, err := newChecker(sites, st.dcs)
	if err != nil {
		stk.close()
		return nil, err
	}
	l := &live{stack: stk, chk: chk}
	for h := 0; h < st.warmup; h++ {
		if _, err := l.hour(st.hours[h], h, nil, t); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

// setUpTimed sets the stack up setupReps times, each over its own fresh
// state directory, and keeps the last.
func setUpTimed(st *stream, workdir string, t *tally) (*live, setupTimes, error) {
	var times setupTimes
	var l *live
	for rep := 0; rep < setupReps; rep++ {
		start, cpu0 := time.Now(), cpuTime()
		next, err := setUp(st, filepath.Join(workdir, fmt.Sprintf("state-%d", rep)), t)
		if err != nil {
			return nil, times, err
		}
		times.add(time.Since(start), cpuTime()-cpu0)
		if l != nil {
			if err := l.close(); err != nil {
				next.close()
				return nil, times, err
			}
		}
		l = next
	}
	return l, times, nil
}

// hour runs one invocation period: a resilient decide, then the route calls
// on the table it installed. With a non-nil lat, the decide's round trip and
// process CPU time and each route's round trip are recorded. The error return
// is for transport failures; failed checks are tallied.
func (l *live) hour(h hour, id int, lat *latencies, t *tally) (api.DecideResponse, error) {
	body, err := json.Marshal(h.request(id))
	if err != nil {
		return api.DecideResponse{}, err
	}
	cpu0 := cpuTime()
	status, resp, rtt, err := l.post("/v1/decide", body)
	if err != nil {
		return api.DecideResponse{}, err
	}
	if lat != nil {
		lat.decide.add(rtt)
		lat.decideCPU.add(cpuTime() - cpu0)
	}
	dec, cerr := l.chk.decide(h, status, resp)
	t.op(cerr)
	for k := 0; k < routesPerHour; k++ {
		premium := routeIsPremium(k)
		status, resp, rtt, err := l.post("/v1/route", routeBodies[b2i(premium)])
		if err != nil {
			return dec, err
		}
		if lat != nil {
			lat.route.add(rtt)
		}
		t.op(l.chk.route(status, resp, premium, id))
	}
	return dec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quality accumulates the answer-quality metrics over the first pass.
type quality struct {
	hours                 int
	cost, served, arrived float64
	optimal               int
}

func (q *quality) add(h hour, r api.DecideResponse) {
	q.hours++
	q.cost += r.PredictedCostUSD
	q.served += r.Served
	q.arrived += h.total
	if r.Degraded == "" {
		q.optimal++
	}
}

// runHTTP is a measured run of a decide workload.
func runHTTP(st *stream, workdir string, seconds time.Duration) (*result, error) {
	res := &result{}
	l, setups, err := setUpTimed(st, workdir, &res.tally)
	if err != nil {
		return nil, err
	}
	defer l.close()

	before, err := l.scrape()
	if err != nil {
		return nil, err
	}
	lat := newLatencies(1 << 14)
	var q quality
	hours := 0
	runtime.GC()
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(seconds)
	// Repeat the pass until the time is up, finishing at least the first.
	for hours < st.length || time.Now().Before(deadline) {
		h := st.hours[st.warmup+hours%st.length]
		dec, err := l.hour(h, st.warmup+hours, lat, &res.tally)
		if err != nil {
			return nil, err
		}
		if hours < st.length {
			q.add(h, dec)
		}
		hours++
	}
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	heap := liveHeapBytes() - lat.bytes()
	after, err := l.scrape()
	if err != nil {
		return nil, err
	}
	d := after.delta(before)
	res.op(consistent(d, hours))

	httpMetrics(res, st, setups, lat, hours, elapsed, cpu, q, heap)
	res.notef("metrics delta: decides=%g routes=%g milp_solves=%g nodes=%g wal_persist_errors=%g audit_rejections=%g swaps=%g",
		d[`billcap_http_requests_total{route="/v1/decide",method="POST",code="200"}`],
		d[`billcap_http_requests_total{route="/v1/route",method="POST",code="200"}`],
		d["billcap_milp_solves_total"], d["billcap_milp_nodes_total"],
		d["billcap_state_persist_errors_total"], d["billcap_audit_rejections_total"],
		d["billcap_route_table_swaps_total"])
	return res, nil
}

// consistent checks the server's own counters against what the client sent:
// every decide and route answered 200 and every decision was persisted.
func consistent(d promSample, hours int) error {
	decides := d[`billcap_http_requests_total{route="/v1/decide",method="POST",code="200"}`]
	routes := d[`billcap_http_requests_total{route="/v1/route",method="POST",code="200"}`]
	switch {
	case decides != float64(hours):
		return fmt.Errorf("metrics: %v decides answered 200, %d sent", decides, hours)
	case routes != float64(hours*routesPerHour):
		return fmt.Errorf("metrics: %v routes answered 200, %d sent", routes, hours*routesPerHour)
	case d["billcap_state_persist_errors_total"] != 0:
		return fmt.Errorf("metrics: %v WAL appends failed", d["billcap_state_persist_errors_total"])
	}
	return nil
}

// httpMetrics fills the end-to-end metrics of a decide workload.
func httpMetrics(res *result, st *stream, setups setupTimes, lat *latencies,
	hours int, elapsed, cpu time.Duration, q quality, heap float64) {
	setups.report(res)
	lat.report(res, st.tail, 1e3, "")
	res.addInfo("hours_per_s", "1/s", float64(hours)/elapsed.Seconds(), hours, "decide plus routes, closed loop")
	res.add("cpu_ms_per_hour", "ms", cpu.Seconds()*1e3/float64(hours), hours, "process CPU per hour decided and routed, client and server")
	addQuality(res, q)
	res.add("live_heap_mb", "MB", heap/(1<<20), 1, "after forced GC, latency buffers excluded")
}

func addQuality(res *result, q quality) {
	base := fmt.Sprintf("first pass of %d hours", q.hours)
	res.add("cost_per_hour_usd", "USD", q.cost/float64(q.hours), q.hours, base)
	res.add("served_frac", "ratio", q.served/q.arrived, q.hours, base)
	res.add("optimal_frac", "ratio", float64(q.optimal)/float64(q.hours), q.hours, base)
	res.notef("degraded_frac=%.6g (n=%d)  failed_frac=%.6g (%d of %d ops)",
		1-float64(q.optimal)/float64(q.hours), q.hours,
		float64(res.failed)/math.Max(1, float64(res.attempted)), res.failed, res.attempted)
}

// cpuTime is the CPU time all of the process's threads have run, read from
// CLOCK_PROCESS_CPUTIME_ID with nanosecond resolution. The kernel does not
// charge it with time the hypervisor gave the vCPU to another guest (steal),
// which moves wall-clock figures by a third or more between runs on a shared
// host; the CPU figures stay within a few percent.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// liveHeapBytes is the heap in use after a forced GC.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
