package api

import (
	"fmt"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/state"
)

// EnableState opens (creating if needed) the state directory, restores the
// degradation ladder and the billing position from the newest consistent
// checkpoint, and starts recording every decide that changes durable state.
// It reports what was recovered — the same structure /readyz then serves —
// and registers the restore metrics.
func (s *Server) EnableState(dir string) (state.RestoreInfo, error) {
	j, _, info, err := controller.Open(dir, s.tariff, s.resilient)
	if err != nil {
		return info, err
	}
	s.journal, s.restored = j, info
	s.persistErrors = s.reg.Counter("billcap_state_persist_errors_total",
		"Decisions whose durable WAL append failed (the decision was still served).")

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
	if s.journal == nil {
		return nil
	}
	s.tariffMu.Lock()
	defer s.tariffMu.Unlock()
	err := s.journal.Checkpoint()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// commit settles a served /v1/decide. Unless the request is what-if
// (explicit peakMW or batteries), the decision commits to the billing
// position. The journal then records the decide if it changed durable
// state: a resilient decide moves the ladder, a commit moves a stateful
// position. Both happen under the position lock, so WAL order is commit
// order and no entry carries a later decision's battery moves.
func (s *Server) commit(req DecideRequest, in core.HourInput, dec core.Decision) error {
	s.tariffMu.Lock()
	defer s.tariffMu.Unlock()
	commits := req.PeakMW == nil && req.Batteries == nil
	if commits {
		draw := make([]float64, len(dec.Sites))
		for i, a := range dec.Sites {
			draw[i] = a.PowerMW
		}
		if _, _, err := s.tariff.Commit(in, dec, draw, in.DemandMW); err != nil {
			return fmt.Errorf("api: %w", err)
		}
	}
	if s.journal == nil || !(req.Resilient || commits && s.tariff.Stateful()) {
		return nil
	}
	// Persistence failures are counted, not surfaced: the decision was
	// already made and serving it beats failing the hour over a full disk.
	if s.journal.Record(0) != nil {
		s.persistErrors.Inc()
	}
	return nil
}
