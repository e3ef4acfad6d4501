// Command e2ebench is billcap's end-to-end benchmark. It assembles capperd's
// stack in process from the same public constructors cmd/capperd uses,
// serves it over loopback HTTP, and drives one workload from a single
// client in a closed loop; the sim-month workload replays the paper month
// through sim.Run instead. Every answer is checked from the outside.
//
//	e2ebench --workload paper-hours --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced pass instead and prints the per-layer metrics (see trace.go).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer failed a check.
//
// The JSON carries the metrics BENCHMARK.json bounds. The report above it
// also prints, marked (info), the wall-clock decide latency and tails, the
// route tail and the closed-loop throughput: on a shared host, time the
// hypervisor gives the vCPUs to other guests moves those by a third or more
// between runs, so the bounded figures for decide work are process CPU
// times, which that time is not charged to.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: paper-hours, tariff13, fleet200 or sim-month")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase, seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for state directories and span files")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, environment(*name, *seed, *seconds, *trace == 1)); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if res.failed > 0 || res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d operations failed a check: %v\n", res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, trace bool, workdir string) (*result, error) {
	sp, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	st, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	switch {
	case trace:
		return runTrace(st, dir, seconds)
	case sp.sim:
		return runSim(st, seconds)
	default:
		return runHTTP(st, dir, seconds)
	}
}
