package api

import (
	"fmt"
	"sync"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/obs"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

// stateLayer is the server's optional crash-safe persistence: a state.Store
// plus the serialization the concurrent HTTP handlers need around it.
type stateLayer struct {
	mu      sync.Mutex
	store   *state.Store
	info    state.RestoreInfo
	appends int

	persistErrors *obs.Counter
}

// EnableState opens (creating if needed) the state directory, restores the
// degradation ladder from the newest consistent checkpoint, and starts
// persisting every resilient decision. It reports what was recovered — the
// same structure /readyz then serves — and registers the restore metrics.
func (s *Server) EnableState(dir string) (state.RestoreInfo, error) {
	store, cp, info, err := state.Open(dir)
	if err != nil {
		return info, err
	}
	if cp != nil && cp.Resilient != nil {
		if err := s.resilient.Restore(*cp.Resilient); err != nil {
			store.Close()
			return info, err
		}
	}
	if cp != nil {
		s.withTariff(func(p *controller.Position) { err = p.Restore(cp.Peaks, cp.BatterySoCMWh) })
		if err != nil {
			store.Close()
			return info, fmt.Errorf("api: %w", err)
		}
	}
	s.state = &stateLayer{
		store: store,
		info:  info,
		persistErrors: s.reg.Counter("billcap_state_persist_errors_total",
			"Decisions whose durable WAL append failed (the decision was still served)."),
	}

	restores := s.reg.Counter("billcap_state_restores_total",
		"Successful ladder restores from the state directory at startup.")
	if info.Restored {
		restores.Inc()
	}
	s.reg.Counter("billcap_wal_corruptions_total",
		"Torn or CRC-mismatched WAL records dropped by truncate-and-continue at startup.").
		Add(float64(info.WALCorruptions))
	return info, nil
}

// CloseState writes a final checkpoint and releases the state directory.
// Safe to call when state was never enabled.
func (s *Server) CloseState() error {
	if s.state == nil {
		return nil
	}
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	ls := s.resilient.Snapshot()
	var peaks *pricing.PeakState
	var socs []float64
	s.withTariff(func(p *controller.Position) { peaks, socs = p.Snapshot() })
	err := s.state.store.WriteSnapshot(state.Checkpoint{
		Hour: nextHour(ls), Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs,
	})
	if cerr := s.state.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// commit records a served /v1/decide: unless the request is what-if
// (explicit peakMW or batteries), the decision commits to the billing
// position, and a resilient decision is appended to the WAL with the
// position the commit left. Both happen under the state lock, so WAL order
// is commit order and no entry carries a later decision's battery moves.
func (s *Server) commit(req DecideRequest, in core.HourInput, dec core.Decision) error {
	persist := req.Resilient && s.state != nil
	if persist {
		s.state.mu.Lock()
		defer s.state.mu.Unlock()
	}
	var peaks *pricing.PeakState
	var socs []float64
	var err error
	s.withTariff(func(p *controller.Position) {
		if req.PeakMW == nil && req.Batteries == nil {
			draw := make([]float64, len(dec.Sites))
			for i, a := range dec.Sites {
				draw[i] = a.PowerMW
			}
			_, _, err = p.Commit(in, dec, draw, in.DemandMW)
		}
		peaks, socs = p.Snapshot()
	})
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if !persist {
		return nil
	}
	// Persistence failures are counted, not surfaced: the decision was
	// already made and serving it beats failing the hour over a full disk.
	ls := s.resilient.Snapshot()
	if err := s.state.store.Append(state.Entry{
		Hour: in.Hour, Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs,
	}); err != nil {
		s.state.persistErrors.Inc()
		return nil
	}
	s.state.appends++
	if state.SnapshotDue(s.state.appends) {
		cp := state.Checkpoint{Hour: nextHour(ls), Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs}
		if err := s.state.store.WriteSnapshot(cp); err != nil {
			s.state.persistErrors.Inc()
		}
	}
	return nil
}

// nextHour derives a checkpoint's hour cursor from the ladder state.
func nextHour(ls core.ResilientState) int {
	if ls.LastGood == nil || ls.LastGoodHour < 0 {
		return 0
	}
	return ls.LastGoodHour + 1
}
