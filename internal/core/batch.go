package core

import (
	"context"
	"runtime"
	"sync"
)

// DecideBatch solves many independent hours concurrently — the bulk path for
// re-optimizing a horizon (day-ahead sweeps, what-if studies) without
// serializing the hours. Each hour's solve is the sequential search; the
// hours themselves fan out over min(GOMAXPROCS, len(ins)) goroutines.
//
// Results are index-aligned with ins: decs[i] answers ins[i], errs[i] is its
// error (nil on success). The context bounds every solve; its deadline and
// cancellation propagate into branch-and-bound exactly as in DecideHourCtx.
//
// The batch is split into contiguous chunks, one per goroutine, each
// processed in input order. No hour's solve depends on another's, so the
// chunking only spreads the work: every decision equals what DecideHourCtx
// would return for that hour alone.
func (s *System) DecideBatch(ctx context.Context, ins []HourInput) ([]Decision, []error) {
	decs := make([]Decision, len(ins))
	errs := make([]error, len(ins))
	if len(ins) == 0 {
		return decs, errs
	}
	conc := min(runtime.GOMAXPROCS(0), len(ins))
	chunk := (len(ins) + conc - 1) / conc

	var wg sync.WaitGroup
	for lo := 0; lo < len(ins); lo += chunk {
		hi := min(lo+chunk, len(ins))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				so, err := boundByCtx(ctx, s.solveOptions())
				if err != nil {
					errs[i] = err
					continue
				}
				decs[i], errs[i] = s.decideWith(ins[i], so)
			}
		}(lo, hi)
	}
	wg.Wait()
	return decs, errs
}
