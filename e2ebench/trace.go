package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/dispatch"
	"billcap/internal/obs"
	"billcap/internal/pricing"
	"billcap/internal/sim"
	"billcap/internal/state"
)

// The traced run is separate from the measured runs. It sets the same stack
// up from the same seed and drives the same hours twice: once untraced, for
// the runtime's GC share and the round trip it is compared against, and once
// traced. For every traced op it replays the input the server saw through
// each layer's public functions on a twin stack (a second System, Resilient,
// state.Store and dispatch snapshot built the way the server builds them),
// one span per call, and takes the server's own handler time from the
// /metrics histogram deltas around the op. A replayed span is not nested in
// time inside its parent; a parent's self time is its duration minus its
// children's durations, so per op the self times add up to the round trip
// and the handler's self time is the unattributed remainder, other_ms.
// Finally it runs the workload's month through sim.Run with each hour timed.

// span is one timed call. Start and End are nanoseconds since the trace
// began; a span derived from a duration alone (handler time from /metrics,
// the network overhead) ends where it starts plus that duration.
type span struct {
	Op     int    `json:"op"`
	Hour   int    `json:"hour"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

// begin opens a new op and records its root span.
func (t *tracer) begin(name string, hourID int, start, end time.Time) int {
	t.op++
	return t.record(name, hourID, -1, start, end)
}

func (t *tracer) record(name string, hourID, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Op: t.op, Hour: hourID, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) derived(name string, hourID, parent int, at time.Time, d int64) int {
	s := int64(at.Sub(t.t0))
	t.spans = append(t.spans, span{Op: t.op, Hour: hourID, Name: name, Start: s, End: s + d, Parent: parent})
	return len(t.spans) - 1
}

// timed runs f and records it as a span under parent.
func (t *tracer) timed(name string, hourID, parent int, f func()) int {
	start := time.Now()
	f()
	return t.record(name, hourID, parent, start, time.Now())
}

// selfTimes reduces the spans to self times: duration minus the durations
// of direct children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twin is the in-process replica the traced run replays inputs through.
type twin struct {
	sys     *core.System
	res     *core.Resilient
	store   *state.Store
	dir     string
	appends int
	version uint64
	snap    *dispatch.Snapshot
}

func newTwin(st *stream, dir string) (*twin, error) {
	sys, err := core.NewSystem(st.dcs, st.policies, st.coreOptions())
	if err != nil {
		return nil, err
	}
	sys.SetMetrics(core.NewMetrics(obs.NewRegistry()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, _, _, err := state.Open(dir)
	if err != nil {
		return nil, err
	}
	return &twin{sys: sys, res: core.NewResilient(sys, core.ResilientOptions{}), store: store, dir: dir}, nil
}

// input mirrors what capperd's decide handler hands the controller: the
// wire fields, an omitted budget as uncapped, and the live tariff position
// (as GET /v1/tariff showed it just before the decide) filled in.
func (tw *twin) input(req api.DecideRequest, pos *api.TariffResponse) core.HourInput {
	in := core.HourInput{
		Hour:          req.Hour,
		TotalLambda:   req.TotalLambda,
		PremiumLambda: req.PremiumLambda,
		DemandMW:      req.DemandMW,
		BudgetUSD:     math.Inf(1),
	}
	if req.BudgetUSD != nil {
		in.BudgetUSD = *req.BudgetUSD
	}
	if pos != nil {
		in.DemandChargeUSDPerMW = pos.DemandChargeUSDPerMWMonth
		if pos.DemandChargeUSDPerMWMonth > 0 {
			in.PeakMW = make([]float64, len(pos.Sites))
			for i, s := range pos.Sites {
				in.PeakMW[i] = s.PeakMW
			}
		}
		in.Batteries = make([]core.BatterySpec, len(pos.Sites))
		for i, s := range pos.Sites {
			if s.BatCapacityMWh > 0 {
				b := batterySpec
				b.SoCMWh = s.BatSoCMWh
				b.ValueUSDPerMWh = s.BatValueUSD
				in.Batteries[i] = b
			}
		}
	}
	return in
}

// entry mirrors the WAL entry capperd persists after a resilient decision.
func entry(hourID int, ls *core.ResilientState, pos *api.TariffResponse) state.Entry {
	e := state.Entry{Hour: hourID, Resilient: ls}
	if pos != nil {
		ps := pricing.PeakState{PeaksMW: make([]float64, len(pos.Sites))}
		socs := make([]float64, len(pos.Sites))
		for i, s := range pos.Sites {
			ps.PeaksMW[i] = s.PeakMW
			socs[i] = s.BatSoCMWh
		}
		e.Peaks, e.BatterySoCMWh = &ps, socs
	}
	return e
}

func (tw *twin) walBytes() int64 {
	fi, err := os.Stat(filepath.Join(tw.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// layers collects the per-layer figures of the traced pass.
type layers struct {
	decode, encode, respBytes, netOverhead, validate, solve, supervise floats
	allocs, allocKB, snapshot, appendMS, walBytes, snapMS, compile     floats
	patternLen, routeNS, other, rtt                                    floats
	responses                                                          []api.DecideResponse
	mismatches                                                         int
}

// tracedHour replays one hour's decide and routes with spans.
func (l *live) tracedHour(st *stream, tw *twin, tr *tracer, lay *layers, h hour, id int,
	before promSample, t *tally) (promSample, error) {
	var pos *api.TariffResponse
	if st.tariff {
		pos = &api.TariffResponse{}
		if err := l.getJSON("/v1/tariff", pos); err != nil {
			return nil, err
		}
	}
	req := h.request(id)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	status, resp, rtt, err := l.post("/v1/decide", body)
	if err != nil {
		return nil, err
	}
	end := start.Add(rtt)
	dec, cerr := l.chk.decide(h, status, resp)
	t.op(cerr)
	mid, err := l.scrape()
	if err != nil {
		return nil, err
	}
	handler, err := handlerNS(mid.delta(before), "/v1/decide", 1)
	if err != nil {
		return nil, err
	}

	root := tr.begin("decide", id, start, end)
	tr.derived("net.overhead", id, root, start, int64(rtt)-handler)
	hs := tr.derived("api.handler", id, root, start, handler)
	var in core.HourInput
	var twinDec core.Decision
	var decodeErr error
	// api.decode covers the request's unmarshal and its mapping onto the
	// controller's input, as the handler does both before validating.
	lay.decode = append(lay.decode, us(tr.timed("api.decode", id, hs, func() {
		var r api.DecideRequest
		decodeErr = json.Unmarshal(body, &r)
		in = tw.input(r, pos)
	}), tr))
	if decodeErr != nil {
		return nil, decodeErr
	}
	lay.validate = append(lay.validate, us(tr.timed("core.validate", id, hs, func() { _ = tw.sys.ValidateInput(in) }), tr))
	ctx := context.Background()
	dsStart := time.Now()
	twinDec = tw.res.DecideCtx(ctx, in)
	ds := tr.record("core.decide", id, hs, dsStart, time.Now())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	solveStart := time.Now()
	_, _ = tw.sys.DecideHourCtx(ctx, in)
	solveEnd := time.Now()
	runtime.ReadMemStats(&m1)
	ss := tr.record("core.solve", id, ds, solveStart, solveEnd)
	lay.solve = append(lay.solve, ms(ss, tr))
	lay.supervise = append(lay.supervise, float64(tr.spans[ds].dur()-tr.spans[ss].dur())/1e6)
	lay.allocs = append(lay.allocs, float64(m1.Mallocs-m0.Mallocs))
	lay.allocKB = append(lay.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	if twinDec.Served != dec.Served {
		lay.mismatches++
	}

	arrivedOrd := math.Max(0, in.TotalLambda-in.PremiumLambda)
	var snapErr error
	lay.compile = append(lay.compile, us(tr.timed("dispatch.compile", id, hs, func() {
		tw.version++
		var s *dispatch.Snapshot
		s, snapErr = dispatch.NewSnapshot(twinDec.Lambdas(), twinDec.ServedOrdinary, arrivedOrd, id, tw.version)
		if snapErr == nil {
			tw.snap = s
		}
	}), tr))
	if snapErr != nil {
		return nil, snapErr
	}
	lay.patternLen = append(lay.patternLen, float64(tw.snap.PatternLen()))

	var ls core.ResilientState
	lay.snapshot = append(lay.snapshot, us(tr.timed("core.snapshot", id, hs, func() {
		ls = tw.res.Snapshot()
		_, _ = json.Marshal(ls)
	}), tr))
	walBefore := tw.walBytes()
	var appendErr error
	lay.appendMS = append(lay.appendMS, ms(tr.timed("state.append", id, hs, func() {
		appendErr = tw.store.Append(entry(id, &ls, pos))
	}), tr))
	if appendErr != nil {
		return nil, appendErr
	}
	lay.walBytes = append(lay.walBytes, float64(tw.walBytes()-walBefore))
	tw.appends++
	if tw.appends%snapshotEvery == 0 {
		var werr error
		e := entry(id, &ls, pos)
		lay.snapMS = append(lay.snapMS, ms(tr.timed("state.snapshot", id, hs, func() {
			werr = tw.store.WriteSnapshot(state.Checkpoint{Hour: id + 1, Resilient: &ls,
				Peaks: e.Peaks, BatterySoCMWh: e.BatterySoCMWh})
		}), tr))
		if werr != nil {
			return nil, werr
		}
	}
	lay.encode = append(lay.encode, us(tr.timed("api.encode", id, hs, func() {
		_, _ = json.MarshalIndent(dec, "", "  ")
	}), tr))
	lay.respBytes = append(lay.respBytes, float64(len(resp)))
	lay.netOverhead = append(lay.netOverhead, float64(int64(rtt)-handler)/1e3)
	lay.rtt = append(lay.rtt, float64(rtt)/1e6)
	lay.responses = append(lay.responses, dec)
	other := tr.spans[hs].dur()
	for _, s := range tr.spans[hs+1:] {
		if s.Parent == hs {
			other -= s.dur()
		}
	}
	lay.other = append(lay.other, float64(other)/1e6)

	// Routes: the server's route handler time is the histogram delta over
	// the hour's routes, shared evenly among them.
	type routed struct {
		start   time.Time
		rtt     time.Duration
		premium bool
	}
	var rs [routesPerHour]routed
	for k := range rs {
		premium := routeIsPremium(k)
		start := time.Now()
		status, resp, rtt, err := l.post("/v1/route", routeBodies[b2i(premium)])
		if err != nil {
			return nil, err
		}
		rs[k] = routed{start, rtt, premium}
		t.op(l.chk.route(status, resp, premium, id))
	}
	after, err := l.scrape()
	if err != nil {
		return nil, err
	}
	routeHandler, err := handlerNS(after.delta(mid), "/v1/route", routesPerHour)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		root := tr.begin("route", id, r.start, r.start.Add(r.rtt))
		tr.derived("net.overhead", id, root, r.start, int64(r.rtt)-routeHandler)
		hs := tr.derived("api.handler", id, root, r.start, routeHandler)
		tr.timed("api.route_decode", id, hs, func() {
			var rr api.RouteRequest
			_ = json.Unmarshal(routeBodies[b2i(r.premium)], &rr)
		})
		class := dispatch.Ordinary
		if r.premium {
			class = dispatch.Premium
		}
		var rr api.RouteResponse
		ri := tr.timed("dispatch.route", id, hs, func() {
			if tw.snap.Admit(class) {
				rr.Admitted, rr.SiteIndex = true, tw.snap.Route()
			}
		})
		lay.routeNS = append(lay.routeNS, float64(tr.spans[ri].dur()))
		tr.timed("api.route_encode", id, hs, func() { _, _ = json.MarshalIndent(rr, "", "  ") })
	}
	return after, nil
}

// handlerNS is the mean handler time of one request to route over the
// delta, in nanoseconds, checking the delta covers exactly n requests.
func handlerNS(d promSample, route string, n int) (int64, error) {
	if c := d[fmt.Sprintf(`billcap_http_request_seconds_count{route=%q}`, route)]; c != float64(n) {
		return 0, fmt.Errorf("trace: %v requests to %s between scrapes, want %d", c, route, n)
	}
	sum := d[fmt.Sprintf(`billcap_http_request_seconds_sum{route=%q}`, route)]
	return int64(math.Round(sum * 1e9 / float64(n))), nil
}

func us(i int, tr *tracer) float64 { return float64(tr.spans[i].dur()) / 1e3 }
func ms(i int, tr *tracer) float64 { return float64(tr.spans[i].dur()) / 1e6 }

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// snapshotEvery is capperd's checkpoint interval in persisted decisions;
// each traced pass covers at least one.
const snapshotEvery = 24

// runTrace is the traced run of any workload.
func runTrace(st *stream, dir string, seconds time.Duration) (*result, error) {
	res := &result{}
	l, err := setUp(st, filepath.Join(dir, "state"), &res.tally)
	if err != nil {
		return nil, err
	}
	defer l.close()
	tw, err := newTwin(st, filepath.Join(dir, "twin"))
	if err != nil {
		return nil, err
	}
	defer tw.store.Close()

	// The untraced and traced passes and the simulation share the time; the
	// passes cover at least one WAL snapshot interval each.
	budget := seconds / 3
	first := st.warmup
	// Untraced pass: the round trips the traced pass is compared against,
	// and the runtime's GC share of CPU without the tracer's allocations.
	plain := newLatencies(st.length)
	gc0, cpu0 := gcCPU()
	n := 0
	for deadline := time.Now().Add(budget); n < st.length && (n < snapshotEvery || time.Now().Before(deadline)); n++ {
		if _, err := l.hour(st.hours[first+n], first+n, plain, &res.tally); err != nil {
			return nil, err
		}
	}
	gc1, cpu1 := gcCPU()

	// Traced pass over the same hours.
	tr := &tracer{t0: time.Now()}
	var lay layers
	before, err := l.scrape()
	if err != nil {
		return nil, err
	}
	start := before
	for k := 0; k < n; k++ {
		if before, err = l.tracedHour(st, tw, tr, &lay, st.hours[first+k], first+n+k, before, &res.tally); err != nil {
			return nil, err
		}
	}
	d := before.delta(start)
	for _, err := range checkSelf(tr) {
		res.op(err)
	}

	simt, err := traceSim(st, tr, budget, &res.tally)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.jsonl", st.name, st.seed))); err != nil {
		return nil, err
	}

	plainP50 := plain.decide.quantile(0.5) / 1e6
	layerMetrics(res, &lay, d, plainP50, (gc1-gc0)/math.Max(cpu1-cpu0, 1e-9), simt)
	res.notef("untraced and traced passes: %d hours each; decide p50 %.4f ms untraced, %.4f ms traced (tracing adds %.4f ms)",
		n, plainP50, lay.rtt.median(), lay.rtt.median()-plainP50)
	res.notef("simulated months: %d, hours over a power cap: %d, cap penalties $%.2f", len(simt.self), simt.capHours, simt.penalty)
	res.notef("other_ms is %.1f%% of the untraced decide p50; twin decisions that differed from the server's: %d of %d",
		100*lay.other.median()/plainP50, lay.mismatches, n)
	return res, nil
}

// checkSelf verifies, op by op, that the self times add up to the root
// span's duration: the round trip of a decide or route, a month's wall time.
func checkSelf(tr *tracer) []error {
	self := tr.selfTimes()
	total := map[int]int64{}
	root := map[int]int{}
	for i, s := range tr.spans {
		total[s.Op] += self[i]
		if s.Parent < 0 {
			root[s.Op] = i
		}
	}
	var errs []error
	for op, i := range root {
		var err error
		if total[op] != tr.spans[i].dur() {
			err = fmt.Errorf("trace: op %d self times add to %d ns, its root span lasts %d ns", op, total[op], tr.spans[i].dur())
		}
		errs = append(errs, err)
	}
	return errs
}

// simTrace is what the traced simulation measured.
type simTrace struct {
	// decide is per simulated hour; self (month wall time minus the
	// decisions) and allocMB are per month.
	decide, self, allocMB floats
	// capHours counts hours whose metered draw passed a site cap, and
	// penalty is what those hours were charged.
	capHours int
	penalty  float64
}

// traceSim runs the workload's month through sim.Run with every hour's
// decision timed, until the budget is spent (at least one month).
func traceSim(st *stream, tr *tracer, budget time.Duration, t *tally) (simTrace, error) {
	var out simTrace
	d, err := newDecider(st)
	if err != nil {
		return out, err
	}
	for deadline := time.Now().Add(budget); len(out.self) == 0 || time.Now().Before(deadline); {
		var lat samples
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		r, err := sim.Run(st.month, &timedDecider{inner: d, wall: &lat})
		end := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return out, err
		}
		// The cap check is sim-month's. Under a tariff with batteries the
		// metered draw can pass the cap by up to the rounding slack; such
		// hours are counted and reported instead.
		for _, err := range checkMonth(r, nil, st.month.Month.Len(), st.sim) {
			t.op(err)
		}
		for _, h := range r.Hours {
			if h.CapViolations > 0 {
				out.capHours++
			}
		}
		out.penalty += r.TotalPenaltyUSD
		root := tr.begin("sim.month", -1, start, end)
		at := start
		var sum int64
		for i, x := range lat {
			tr.derived("sim.decide", r.Hours[i].Hour, root, at, x)
			out.decide = append(out.decide, float64(x)/1e6)
			sum += x
		}
		out.self = append(out.self, float64(int64(end.Sub(start))-sum)/1e6)
		out.allocMB = append(out.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	return out, nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(res *result, lay *layers, d promSample, plainP50, gcFrac float64, simt simTrace) {
	n := len(lay.rtt)
	var solves, warm, wall, nodes, fixed, timeouts, pivots, refac, updates, iters, gap floats
	for _, r := range lay.responses {
		solves = append(solves, float64(r.SolverSolves))
		warm = append(warm, float64(r.SolverWarmStarted))
		wall = append(wall, r.SolverWallMS)
		nodes = append(nodes, float64(r.SolverNodes))
		fixed = append(fixed, float64(r.SolverPresolveFixed))
		timeouts = append(timeouts, float64(r.SolverTimeouts))
		pivots = append(pivots, float64(r.SolverPivots))
		refac = append(refac, float64(r.SolverLPRefactorizations))
		updates = append(updates, float64(r.SolverLPBasisUpdates))
		iters = append(iters, float64(r.SolverDecompIterations))
		gap = append(gap, r.SolverDecompGap)
	}
	decides := d[`billcap_http_request_seconds_count{route="/v1/decide"}`]
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	p := "p50 per decide"
	mean := "mean per decide"
	res.add("api.decode_us", "us", lay.decode.median(), n, p)
	res.add("api.encode_us", "us", lay.encode.median(), n, p)
	res.add("api.resp_bytes", "bytes", lay.respBytes.median(), n, p)
	res.add("api.handler_ms", "ms", 1e3*ratio(d[`billcap_http_request_seconds_sum{route="/v1/decide"}`], decides), int(decides), "mean, /metrics delta")
	res.add("net.rtt_overhead_us", "us", lay.netOverhead.median(), n, p)
	res.add("core.validate_us", "us", lay.validate.median(), n, p)
	res.add("core.solve_ms", "ms", lay.solve.median(), n, p)
	res.add("core.supervise_ms", "ms", lay.supervise.median(), n, p)
	res.add("core.decide_allocs", "count", lay.allocs.mean(), n, mean)
	res.add("core.decide_alloc_kb", "KiB", lay.allocKB.mean(), n, mean)
	res.add("core.snapshot_us", "us", lay.snapshot.median(), n, p)
	res.add("core.cache_hit_ratio", "ratio", ratio(warm.sum(), solves.sum()), n, "warm starts over MILP solves")
	res.add("milp.wall_ms", "ms", wall.mean(), n, mean)
	res.add("milp.solves", "count", solves.mean(), n, mean)
	res.add("milp.nodes", "count", nodes.mean(), n, mean)
	res.add("milp.presolve_fixed", "count", fixed.mean(), n, mean)
	res.add("milp.timeouts", "count", timeouts.sum(), n, "total")
	res.add("lp.pivots", "count", pivots.mean(), n, mean)
	res.add("lp.refactorizations", "count", refac.mean(), n, mean)
	res.add("lp.basis_updates", "count", updates.mean(), n, mean)
	res.add("decomp.iterations", "count", iters.mean(), n, mean)
	res.add("decomp.gap", "ratio", gap.max(), n, "worst in run")
	res.add("audit.reject_ratio", "ratio", ratio(d["billcap_audit_rejections_total"], decides), int(decides), "/metrics delta")
	res.add("state.append_ms", "ms", lay.appendMS.median(), n, p)
	res.add("state.wal_bytes", "bytes", lay.walBytes.median(), n, p)
	res.add("state.snapshot_ms", "ms", lay.snapMS.median(), len(lay.snapMS), "p50, every 24th decide")
	res.add("dispatch.compile_us", "us", lay.compile.median(), n, p)
	res.add("dispatch.pattern_len", "count", lay.patternLen.median(), n, p)
	res.add("dispatch.swaps", "count", d["billcap_route_table_swaps_total"], n, "/metrics delta")
	res.add("dispatch.route_ns", "ns", lay.routeNS.median(), len(lay.routeNS), "p50 per route")
	res.add("sim.decide_ms", "ms", simt.decide.median(), len(simt.decide), "p50 per simulated hour")
	res.add("sim.self_ms", "ms", simt.self.median(), len(simt.self), "p50 per month: wall minus decisions")
	res.add("sim.alloc_mb", "MB", simt.allocMB.median(), len(simt.allocMB), "p50 per month")
	res.add("runtime.gc_cpu_frac", "ratio", gcFrac, 1, "GC CPU over all CPU, untraced pass")
	res.add("other_ms", "ms", lay.other.median(), n, "p50 per decide: handler minus its replayed spans")
	res.add("other_share", "ratio", ratio(lay.other.median(), plainP50), n, "other_ms over the untraced decide p50")
	res.add("trace.rtt_delta_ms", "ms", lay.rtt.median()-plainP50, n, "traced minus untraced decide p50")
}
