package dispatch

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Snapshot is the data plane's immutable routing view of one capper
// decision: the per-site routing weights and the ordinary admission rate,
// compiled into structures every method can use without taking a lock. A
// control plane builds a fresh Snapshot per decision and swaps it whole
// behind an atomic.Pointer; request-path goroutines only ever read it, so
// routing stays wait-free while hour allocations change underneath.
//
// Largest-remainder routing (credit every site its weight, send the
// request to the site with the most credit, charge that site one request)
// is O(N) per request and mutates shared credit state, which would need a
// mutex at millions of routes per second. Snapshot instead precompiles the
// routing sequence: at build time it runs those credits for one full cycle
// (a power-of-two number of requests, patternLen) and stores the resulting
// site sequence — a Webster wheel. Routing request k is then one atomic
// fetch-add plus one array read, O(1) and goroutine-safe by construction:
//
//	site(k) = pattern[k mod len(pattern)]
//
// Within one cycle the wheel has the largest-remainder low-discrepancy
// guarantee: every prefix of n requests puts each site within ±1.5 of
// n·weight. Each full cycle routes exactly the largest-remainder
// apportionment of patternLen requests, so across m wrapped cycles the
// worst per-site deviation grows only as m·|cycleCount − patternLen·w| < m
// — the wheel is sized per fleet but never below 4096 slots, so that is
// under 0.025% of the routed volume.
//
// Admission is the same trick: an atomic ordinal k admits the ordinary
// request iff ⌊rate·k⌋ > ⌊rate·(k−1)⌋, deterministic largest-remainder
// pacing without a mutable credit.
type Snapshot struct {
	weights      []float64
	ordinaryRate float64
	hour         int
	version      uint64

	pattern  []uint16
	mask     uint64
	perCycle []int64 // exact per-site counts of one full pattern cycle

	cursor   atomic.Uint64 // next routing ordinal
	admits   atomic.Uint64 // ordinary admission ordinal
	arrivals atomic.Uint64 // requests observed (admitted or not), drift's input

	shards []countShard // routed-request tallies, sharded by ordinal
}

// countShard is one stripe of the per-site routed counters. Consecutive
// routing ordinals land on consecutive shards, so concurrent goroutines —
// which by construction hold distinct ordinals — increment distinct cache
// lines instead of contending on one hot counter per site.
type countShard struct {
	counts []atomic.Int64
}

const (
	minPatternLen = 1 << 12
	maxPatternLen = 1 << 16
	// patternFill is the target requests-per-site within one cycle; larger
	// fills shrink the per-cycle apportionment error relative to volume.
	patternFill = 64
	// countShardCount stripes the routed counters (power of two).
	countShardCount = 64
)

// patternLen picks the wheel size for n routed sites (sites with positive
// load): the smallest power of two giving every routed site ≈patternFill
// slots per cycle, clamped to [minPatternLen, maxPatternLen].
func patternLen(n int) int {
	l := minPatternLen
	for l < n*patternFill && l < maxPatternLen {
		l <<= 1
	}
	return l
}

// NewSnapshot compiles one decision into an immutable routing snapshot:
// lambdas are the decision's per-site loads (finite, non-negative, at least
// one positive), the gate pair is the decision's served vs arrived ordinary
// traffic (finite and non-negative; the admitted fraction is their ratio
// clamped to 1, and 1 when nothing ordinary arrived), hour is the
// decision's hour index, and version is the control plane's swap counter,
// carried so routed responses can say which table answered.
//
// The wheel is sized and filled over the routed sites (positive load)
// only. A zero-load site's credit stays exactly 0 while the routed credits
// sum to ≈1 after each add, so some routed site always holds strictly more
// and a zero-load site never wins a slot. Leaving it out changes no slot,
// and the compile cost grows with the sites that get traffic, not with the
// fleet.
func NewSnapshot(lambdas []float64, servedOrdinary, arrivedOrdinary float64, hour int, version uint64) (*Snapshot, error) {
	n := len(lambdas)
	if n > math.MaxUint16 {
		return nil, fmt.Errorf("dispatch: %d sites exceed the %d-site snapshot limit", n, math.MaxUint16)
	}
	if n == 0 {
		return nil, fmt.Errorf("dispatch: no sites")
	}
	total := 0.0
	for i, l := range lambdas {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("dispatch: bad load %v at site %d", l, i)
		}
		total += l
	}
	if total <= 0 {
		return nil, fmt.Errorf("dispatch: all-zero allocation")
	}
	if math.IsInf(total, 0) {
		// Each load is finite but the sum overflowed; weights would all
		// collapse to 0.
		return nil, fmt.Errorf("dispatch: total load overflows")
	}
	if !isFiniteNonNeg(servedOrdinary) || !isFiniteNonNeg(arrivedOrdinary) {
		return nil, fmt.Errorf("dispatch: bad rates %v/%v", servedOrdinary, arrivedOrdinary)
	}
	rate := 1.0
	if arrivedOrdinary > 0 {
		rate = math.Min(1, servedOrdinary/arrivedOrdinary)
	}
	routed := make([]int, 0, n) // indices of the sites with positive load
	for i, v := range lambdas {
		if v > 0 {
			routed = append(routed, i)
		}
	}
	l := patternLen(len(routed))
	s := &Snapshot{
		weights:      make([]float64, n),
		ordinaryRate: rate,
		hour:         hour,
		version:      version,
		pattern:      make([]uint16, l),
		mask:         uint64(l - 1),
		perCycle:     make([]int64, n),
		shards:       make([]countShard, countShardCount),
	}
	for i, v := range lambdas {
		s.weights[i] = v / total
	}
	// Largest-remainder wheel: each request credits every routed site its
	// weight and goes to the site with the most credit (the first on a tie),
	// which then pays one request back.
	weights := make([]float64, len(routed))
	for j, i := range routed {
		weights[j] = s.weights[i]
	}
	credit := make([]float64, len(routed))
	for k := range s.pattern {
		best, bestCredit := 0, math.Inf(-1)
		for j, w := range weights {
			credit[j] += w
			if credit[j] > bestCredit {
				bestCredit = credit[j]
				best = j
			}
		}
		credit[best]--
		site := routed[best]
		s.pattern[k] = uint16(site)
		s.perCycle[site]++
	}
	// Pad each stripe to a cache line so neighboring shards never share one.
	padded := (n + 7) &^ 7
	for i := range s.shards {
		s.shards[i].counts = make([]atomic.Int64, padded)
	}
	return s, nil
}

// isFiniteNonNeg reports whether v is a usable rate: finite and ≥ 0. A NaN
// slips past plain `v < 0` (every comparison with NaN is false), which
// would build a gate whose NaN rate silently drops all ordinary traffic.
func isFiniteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0)
}

// Route assigns the next request and returns its site index. Wait-free: one
// fetch-add, one array read, one striped counter increment.
func (s *Snapshot) Route() int {
	k := s.cursor.Add(1) - 1
	site := int(s.pattern[k&s.mask])
	s.shards[k&(countShardCount-1)].counts[site].Add(1)
	return site
}

// RouteBatch assigns n requests with a single fetch-add and returns the
// per-site counts. Full wheel cycles are counted in closed form; only the
// partial cycle (min(n, PatternLen) entries) is walked.
func (s *Snapshot) RouteBatch(n int) []int64 {
	counts := make([]int64, len(s.weights))
	if n <= 0 {
		return counts
	}
	un := uint64(n)
	k0 := s.cursor.Add(un) - un
	l := uint64(len(s.pattern))
	if m := un / l; m > 0 {
		for i := range counts {
			counts[i] += int64(m) * s.perCycle[i]
		}
		un -= m * l
	}
	for j := uint64(0); j < un; j++ {
		counts[s.pattern[(k0+j)&s.mask]]++
	}
	shard := &s.shards[k0&(countShardCount-1)]
	for i, c := range counts {
		if c != 0 {
			shard.counts[i].Add(c)
		}
	}
	return counts
}

// RouteN assigns n requests one by one and returns the per-site counts.
func (s *Snapshot) RouteN(n int) []int {
	counts := make([]int, len(s.weights))
	for k := 0; k < n; k++ {
		counts[s.Route()]++
	}
	return counts
}

// Admit decides one request. Premium always passes; ordinary requests are
// paced at the snapshot's admission rate by ordinal arithmetic, so
// admissions are evenly spread rather than bursty.
func (s *Snapshot) Admit(c Class) bool {
	if c == Premium {
		return true
	}
	k := s.admits.Add(1)
	r := s.ordinaryRate
	return math.Floor(r*float64(k)) > math.Floor(r*float64(k-1))
}

// AdmitBatch decides n ordinary requests with a single fetch-add and
// returns how many were admitted (premium requests need no gate).
func (s *Snapshot) AdmitBatch(n int) int {
	if n <= 0 {
		return 0
	}
	k := s.admits.Add(uint64(n))
	r := s.ordinaryRate
	return int(math.Floor(r*float64(k)) - math.Floor(r*float64(k-uint64(n))))
}

// NoteArrivals records n observed requests (whatever their admission fate)
// and returns the snapshot's running arrival total — the drift detector's
// observed-per-hour input, reset naturally by every table swap.
func (s *Snapshot) NoteArrivals(n int) uint64 {
	return s.arrivals.Add(uint64(n))
}

// Arrivals returns the requests observed since this snapshot was installed.
func (s *Snapshot) Arrivals() uint64 { return s.arrivals.Load() }

// Routed returns the number of requests routed through this snapshot.
func (s *Snapshot) Routed() uint64 { return s.cursor.Load() }

// SiteCounts sums the striped per-site routed counters. Concurrent callers
// see a consistent lower bound (a route increments its stripe just after
// taking its ordinal); once routers quiesce the counts sum to Routed.
func (s *Snapshot) SiteCounts() []int64 {
	out := make([]int64, len(s.weights))
	for i := range s.shards {
		for j := range out {
			out[j] += s.shards[i].counts[j].Load()
		}
	}
	return out
}

// DroppedOrdinary returns how many ordinary requests the pacing gate has
// rejected so far.
func (s *Snapshot) DroppedOrdinary() int64 {
	k := s.admits.Load()
	return int64(k) - int64(math.Floor(s.ordinaryRate*float64(k)))
}

// Weights returns the routing fractions (summing to 1).
func (s *Snapshot) Weights() []float64 { return append([]float64(nil), s.weights...) }

// OrdinaryRate returns the admitted fraction of ordinary traffic.
func (s *Snapshot) OrdinaryRate() float64 { return s.ordinaryRate }

// Hour returns the decision hour the snapshot was compiled from.
func (s *Snapshot) Hour() int { return s.hour }

// Version returns the control plane's swap counter for this snapshot.
func (s *Snapshot) Version() uint64 { return s.version }

// NumSites returns the number of sites in the table.
func (s *Snapshot) NumSites() int { return len(s.weights) }

// PatternLen returns the wheel length: the cycle after which the routing
// sequence repeats.
func (s *Snapshot) PatternLen() int { return len(s.pattern) }
