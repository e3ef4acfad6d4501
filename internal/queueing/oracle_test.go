package queueing

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// This file is the package's test oracle: a discrete-event G/G/m simulator
// that the tests run against the closed-form Allen–Cunneen and Erlang-C
// models. Nothing outside the tests needs it, so it is not compiled into the
// package.

// DESConfig parameterizes a discrete-event simulation of a G/G/m queue,
// used to validate the Allen–Cunneen approximation against ground truth.
// Inter-arrival and service times are gamma-distributed with the requested
// squared coefficients of variation (gamma covers CV² above and below 1,
// with CV² = 1 reducing to the exponential).
type DESConfig struct {
	Servers int
	// Mu is the per-server service rate; Lambda the arrival rate. Any
	// consistent time unit works — only the ratio matters.
	Mu, Lambda float64
	// ArrivalCV2 and ServiceCV2 are the squared coefficients of variation.
	ArrivalCV2, ServiceCV2 float64
	// Warmup arrivals are discarded; Samples arrivals are measured.
	Warmup, Samples int
	Seed            int64
}

// Validate reports the first configuration error.
func (c DESConfig) Validate() error {
	switch {
	case c.Servers < 1:
		return fmt.Errorf("queueing: DES servers %d", c.Servers)
	case c.Mu <= 0 || c.Lambda <= 0:
		return fmt.Errorf("queueing: DES rates λ=%v µ=%v", c.Lambda, c.Mu)
	case c.Lambda >= float64(c.Servers)*c.Mu:
		return fmt.Errorf("queueing: DES unstable (ρ ≥ 1)")
	case c.ArrivalCV2 <= 0 || c.ServiceCV2 <= 0:
		return fmt.Errorf("queueing: DES CV² must be positive")
	case c.Samples < 1 || c.Warmup < 0:
		return fmt.Errorf("queueing: DES samples %d warmup %d", c.Samples, c.Warmup)
	}
	return nil
}

// DESResult summarizes one simulation run.
type DESResult struct {
	// MeanResponse is the average sojourn time (wait + service) in the same
	// time unit as 1/Mu.
	MeanResponse float64
	// MeanWait is the average queueing delay.
	MeanWait float64
	// Utilization is the measured busy fraction per server.
	Utilization float64
}

// completionHeap orders in-service completion times.
type completionHeap []float64

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// SimulateGGm runs the discrete-event simulation and returns measured
// steady-state statistics.
func SimulateGGm(cfg DESConfig) (DESResult, error) {
	if err := cfg.Validate(); err != nil {
		return DESResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	interArrival := gammaSampler(1/cfg.Lambda, cfg.ArrivalCV2, rng)
	service := gammaSampler(1/cfg.Mu, cfg.ServiceCV2, rng)

	// FIFO G/G/m with identical servers: a request entering service picks
	// any idle server, so only the multiset of busy-until times matters.
	busy := &completionHeap{}
	var (
		clock     float64
		busyArea  float64 // ∫ (#busy servers) dt
		lastEvent float64
		sumResp   float64
		sumWait   float64
		measured  int
	)
	total := cfg.Warmup + cfg.Samples
	advance := func(to float64) {
		busyArea += float64(busy.Len()) * (to - lastEvent)
		lastEvent = to
	}
	measureFrom := cfg.Warmup
	arrivalsSeen := 0
	nextArrival := interArrival()
	type waiting struct {
		at    float64
		index int
	}
	var fifo []waiting

	for arrivalsSeen < total || len(fifo) > 0 || busy.Len() > 0 {
		// Next event: arrival or earliest completion.
		nextCompletion := math.Inf(1)
		if busy.Len() > 0 {
			nextCompletion = (*busy)[0]
		}
		arrivalPending := arrivalsSeen < total
		if arrivalPending && nextArrival <= nextCompletion {
			clock = nextArrival
			advance(clock)
			idx := arrivalsSeen
			arrivalsSeen++
			nextArrival = clock + interArrival()
			if busy.Len() < cfg.Servers {
				s := service()
				heap.Push(busy, clock+s)
				if idx >= measureFrom && idx < measureFrom+cfg.Samples {
					sumResp += s
					measured++
				}
			} else {
				fifo = append(fifo, waiting{at: clock, index: idx})
			}
			continue
		}
		if busy.Len() == 0 {
			break // no completions pending and no arrivals left
		}
		clock = nextCompletion
		advance(clock) // integrate busy time BEFORE freeing the server
		heap.Pop(busy)
		if len(fifo) > 0 {
			w := fifo[0]
			fifo = fifo[1:]
			s := service()
			heap.Push(busy, clock+s)
			if w.index >= measureFrom && w.index < measureFrom+cfg.Samples {
				wait := clock - w.at
				sumWait += wait
				sumResp += wait + s
				measured++
			}
		}
	}
	if measured == 0 {
		return DESResult{}, fmt.Errorf("queueing: DES measured no samples")
	}
	util := 0.0
	if clock > 0 {
		util = busyArea / (clock * float64(cfg.Servers))
	}
	return DESResult{
		MeanResponse: sumResp / float64(measured),
		MeanWait:     sumWait / float64(measured),
		Utilization:  util,
	}, nil
}

// gammaSampler returns a sampler of gamma variates with the given mean and
// squared coefficient of variation (shape k = 1/cv², scale = mean·cv²).
func gammaSampler(mean, cv2 float64, rng *rand.Rand) func() float64 {
	k := 1 / cv2
	scale := mean * cv2
	return func() float64 { return scale * gammaRand(k, rng) }
}

// gammaRand draws a Gamma(k, 1) variate by Marsaglia–Tsang, with the k < 1
// boost.
func gammaRand(k float64, rng *rand.Rand) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) · U^{1/k}.
		return gammaRand(k+1, rng) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
