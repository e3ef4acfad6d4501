package dispatch

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustSnapshot(t *testing.T, lambdas []float64, served, arrived float64) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(lambdas, served, arrived, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSnapshotValidation pins every rejection on the production
// constructor. Two historical bugs are among the cases: +Inf loads passed a
// `l < 0 || math.IsNaN(l)` check and collapsed every weight to 0 or NaN (a
// table routing everything to site 0 or nowhere), and a NaN served rate
// passed `served < 0` and built a gate that dropped every ordinary request
// forever.
func TestNewSnapshotValidation(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name            string
		lambdas         []float64
		served, arrived float64
	}{
		{"empty", nil, 0, 0},
		{"all-zero allocation", []float64{0, 0}, 0, 0},
		{"negative load", []float64{1, -1}, 0, 0},
		{"NaN load", []float64{1, nan}, 0, 0},
		{"+Inf load", []float64{1e12, inf}, 0, 0},
		{"all-Inf loads", []float64{inf, inf}, 0, 0},
		{"-Inf load", []float64{1, math.Inf(-1)}, 0, 0},
		{"overflowing total", []float64{math.MaxFloat64, math.MaxFloat64}, 0, 0},
		{"NaN served", []float64{1, 2}, nan, 100},
		{"NaN arrived", []float64{1, 2}, 30, nan},
		{"+Inf served", []float64{1, 2}, inf, 100},
		{"+Inf arrived", []float64{1, 2}, 30, inf},
		{"-Inf served", []float64{1, 2}, math.Inf(-1), 100},
		{"negative served", []float64{1, 2}, -1, 10},
		{"negative arrived", []float64{1, 2}, 1, -10},
	} {
		if _, err := NewSnapshot(c.lambdas, c.served, c.arrived, 0, 1); err == nil {
			t.Errorf("%s: NewSnapshot(%v, %v, %v) accepted", c.name, c.lambdas, c.served, c.arrived)
		}
	}
}

// TestSnapshotMatchesRouteN: within one wheel cycle the O(1) sampler routes
// the exact sequence a fresh Table would, so per-site counts after any
// n ≤ PatternLen match Table.RouteN within ±1 (they are in fact equal).
func TestSnapshotMatchesRouteN(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		lambdas := make([]float64, k)
		for i := range lambdas {
			lambdas[i] = r.Float64() * 1e12
		}
		lambdas[r.Intn(k)] += 1
		snap := mustSnapshot(t, lambdas, 1, 1)
		tbl, err := NewTable(lambdas)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(snap.PatternLen())
		got := snap.RouteN(n)
		want := tbl.RouteN(n)
		for i := range got {
			if d := got[i] - want[i]; d < -1 || d > 1 {
				t.Logf("seed %d: site %d got %d want %d after %d", seed, i, got[i], want[i], n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWraparound: beyond one cycle the per-site deviation from
// n·weight grows at most by 1 per wrapped cycle (each cycle routes the
// exact largest-remainder apportionment of PatternLen requests).
func TestSnapshotWraparound(t *testing.T) {
	lambdas := []float64{3e11, 1e11, 6e11}
	snap := mustSnapshot(t, lambdas, 1, 1)
	cycles := 5
	n := cycles*snap.PatternLen() + 1234
	counts := snap.RouteBatch(n)
	w := snap.Weights()
	for i, c := range counts {
		if dev := math.Abs(float64(c) - float64(n)*w[i]); dev > float64(cycles)+2 {
			t.Errorf("site %d deviates by %v after %d requests (%d cycles)", i, dev, n, cycles)
		}
	}
}

// TestSnapshotRouteBatchMatchesSequential: one fetch-add batch routes the
// same multiset of sites as n individual Route calls from the same cursor.
func TestSnapshotRouteBatchMatchesSequential(t *testing.T) {
	lambdas := []float64{5, 10, 15, 2}
	a := mustSnapshot(t, lambdas, 1, 1)
	b := mustSnapshot(t, lambdas, 1, 1)
	for _, n := range []int{1, 7, 4096, a.PatternLen(), 2*a.PatternLen() + 77} {
		ca := a.RouteBatch(n)
		cb := b.RouteN(n)
		for i := range ca {
			if ca[i] != int64(cb[i]) {
				t.Fatalf("n=%d site %d: batch %d sequential %d", n, i, ca[i], cb[i])
			}
		}
	}
}

// TestSnapshotAdmitMatchesGate: the ordinal-arithmetic pacing admits the
// same prefix counts as the credit-based Gate, and AdmitBatch agrees with
// request-at-a-time admission.
func TestSnapshotAdmitMatchesGate(t *testing.T) {
	for _, rate := range []struct{ served, arrived float64 }{
		{0, 100}, {30, 100}, {100, 100}, {1, 3}, {99, 100},
	} {
		snap := mustSnapshot(t, []float64{1, 1}, rate.served, rate.arrived)
		gate, err := NewGate(rate.served, rate.arrived)
		if err != nil {
			t.Fatal(err)
		}
		snapAdmitted, gateAdmitted := 0, 0
		for i := 0; i < 1000; i++ {
			if snap.Admit(Ordinary) {
				snapAdmitted++
			}
			if gate.Admit(Ordinary) {
				gateAdmitted++
			}
			if d := snapAdmitted - gateAdmitted; d < -1 || d > 1 {
				t.Fatalf("rate %v/%v: snapshot admitted %d, gate %d after %d",
					rate.served, rate.arrived, snapAdmitted, gateAdmitted, i+1)
			}
		}
		batch := mustSnapshot(t, []float64{1, 1}, rate.served, rate.arrived)
		if got := batch.AdmitBatch(1000); got != snapAdmitted {
			t.Errorf("rate %v/%v: AdmitBatch(1000)=%d, sequential=%d",
				rate.served, rate.arrived, got, snapAdmitted)
		}
		if !snap.Admit(Premium) {
			t.Error("premium gated")
		}
	}
}

// TestSnapshotConcurrentConservation: many goroutines routing on one
// snapshot lose zero requests — the striped counters sum to exactly the
// number of Route calls — and the aggregate distribution stays within the
// wheel's discrepancy bound of the weights. Run with -race.
func TestSnapshotConcurrentConservation(t *testing.T) {
	lambdas := []float64{3e11, 1e11, 6e11}
	snap := mustSnapshot(t, lambdas, 80, 100)
	const goroutines = 8
	const perG = 25000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					snap.Route()
				} else if i%100 == 0 {
					snap.RouteBatch(100)
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	counts := snap.SiteCounts()
	for _, c := range counts {
		total += c
	}
	want := int64(goroutines * perG)
	if total != want {
		t.Fatalf("routed %d of %d requests (lost %d)", total, want, want-total)
	}
	if got := snap.Routed(); int64(got) != want {
		t.Fatalf("cursor %d, want %d", got, want)
	}
	w := snap.Weights()
	cycles := float64(int(want)/snap.PatternLen()) + 2
	for i, c := range counts {
		if dev := math.Abs(float64(c) - float64(want)*w[i]); dev > cycles {
			t.Errorf("site %d deviates by %v after %d concurrent requests", i, dev, want)
		}
	}
}

func TestSnapshotDroppedOrdinary(t *testing.T) {
	snap := mustSnapshot(t, []float64{1, 1}, 25, 100)
	admitted := snap.AdmitBatch(1000)
	if d := snap.DroppedOrdinary(); d != int64(1000-admitted) {
		t.Fatalf("dropped %d, admitted %d of 1000", d, admitted)
	}
	if snap.NoteArrivals(7) != 7 || snap.Arrivals() != 7 {
		t.Error("arrival accounting off")
	}
}

// sparseLoads draws n seeded loads with about a third of the sites at zero
// load and at least one routed (positive) site.
func sparseLoads(r *rand.Rand, n int) []float64 {
	lambdas := make([]float64, n)
	for i := range lambdas {
		if r.Intn(3) != 0 {
			lambdas[i] = r.Float64() * 1e12
		}
	}
	lambdas[r.Intn(n)] += 1
	return lambdas
}

// TestSnapshotSkipsZeroLoadSites: the wheel is sized and filled over the
// routed sites only, and every slot is still the one a fresh Table routes
// over the whole fleet — zero-load sites included — at the same ordinal.
// Fleet sizes run from 1 to 300 in steps that widen with N, which keeps the
// O(PatternLen·N) oracle affordable under the race detector.
func TestSnapshotSkipsZeroLoadSites(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var cases [][]float64
	for n := 1; n < 300; n += 1 + n/8 {
		cases = append(cases, sparseLoads(r, n))
	}
	cases = append(cases, sparseLoads(r, 300))
	lone := make([]float64, 200)
	lone[137] = 5e11
	cases = append(cases, lone)
	for _, lambdas := range cases {
		snap := mustSnapshot(t, lambdas, 1, 1)
		tbl, err := NewTable(lambdas)
		if err != nil {
			t.Fatal(err)
		}
		routed := 0
		for _, l := range lambdas {
			if l > 0 {
				routed++
			}
		}
		if got, want := snap.PatternLen(), patternLen(routed); got != want {
			t.Fatalf("N=%d with %d routed: PatternLen %d, want %d", len(lambdas), routed, got, want)
		}
		for k, site := range snap.pattern {
			if lambdas[site] == 0 {
				t.Fatalf("N=%d: slot %d routes to zero-load site %d", len(lambdas), k, site)
			}
			if want := tbl.Route(); int(site) != want {
				t.Fatalf("N=%d: slot %d is site %d, Table routes %d", len(lambdas), k, site, want)
			}
		}
	}
}

// TestSnapshotDiscrepancyProperty: over one full wheel cycle with zero-load
// sites present, every prefix of n routed requests keeps each site within
// ±1.5 of n·weight.
func TestSnapshotDiscrepancyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		snap := mustSnapshot(t, sparseLoads(r, 2+r.Intn(150)), 1, 1)
		w := snap.Weights()
		counts := make([]float64, len(w))
		for n := 1; n <= snap.PatternLen(); n++ {
			for i, c := range snap.RouteN(1) {
				counts[i] += float64(c)
			}
			for i := range counts {
				if math.Abs(counts[i]-float64(n)*w[i]) > 1.5 {
					t.Logf("seed %d: site %d off by %v after %d", seed, i, counts[i]-float64(n)*w[i], n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNewSnapshot times one wheel compile: the paper's 3 sites, a
// 13-site tariff fleet, a 200-site fleet with half its sites unrouted, and
// 500 sites all routed.
func BenchmarkNewSnapshot(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	loads := func(n int, zeroEvery int) []float64 {
		lambdas := make([]float64, n)
		for i := range lambdas {
			if zeroEvery == 0 || i%zeroEvery != 0 {
				lambdas[i] = 1 + r.Float64()*1e12
			}
		}
		return lambdas
	}
	for _, c := range []struct {
		name    string
		lambdas []float64
	}{
		{"N=3", loads(3, 0)},
		{"N=13", loads(13, 0)},
		{"N=200/half-zero", loads(200, 2)},
		{"N=500", loads(500, 0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSnapshot(c.lambdas, 1, 1, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
