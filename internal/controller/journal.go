package controller

import (
	"fmt"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/forecast"
	"billcap/internal/state"
)

// Journal is the durable record of the hourly loop in a state directory:
// one WAL entry per recorded hour and a checkpoint whenever
// state.SnapshotDue, both built from the degradation ladder, the billing
// position and, for the simulator, the budget ledger and forecast.
//
// The journal numbers its records itself: a record's Hour is its sequence
// number, resumed from the restored cursor, so WAL compaction and replay
// never depend on the hour a client sends. For the simulator the number is
// the simulated hour; capperd's request hour lives only in the ladder
// state. A Journal is not safe for concurrent use.
type Journal struct {
	store  *state.Store
	pos    *Position
	ladder *core.Resilient // nil when the decider has none
	next   int             // the next record's number
	budget *budget.Budgeter
	fc     *forecast.HourOfWeekState
}

// Open opens (creating if needed) the state directory and restores the
// newest consistent state into pos and ladder. It returns the restored
// checkpoint (nil from a fresh directory), from which the simulator
// resumes its budget ledger and forecast, and what the restore found.
func Open(dir string, pos *Position, ladder *core.Resilient) (*Journal, *state.Checkpoint, state.RestoreInfo, error) {
	store, cp, info, err := state.Open(dir)
	if err != nil {
		return nil, nil, info, err
	}
	if cp != nil {
		err = pos.Restore(cp.Peaks, cp.BatterySoCMWh)
		if err == nil && ladder != nil && cp.Resilient != nil {
			err = ladder.Restore(*cp.Resilient)
		}
		if err != nil {
			store.Close()
			return nil, nil, info, fmt.Errorf("controller: %w", err)
		}
	}
	return &Journal{store: store, pos: pos, ladder: ladder, next: info.Hour}, cp, info, nil
}

// Next returns the number the next record will carry: the count of hours
// recorded so far, restored ones included.
func (j *Journal) Next() int { return j.next }

// Carry hands the journal the simulator's budget ledger and forecast, so
// checkpoints carry them too. capperd, whose budget arrives with each
// request, does not call it.
func (j *Journal) Carry(b *budget.Budgeter, fc *forecast.HourOfWeekState) { j.budget, j.fc = b, fc }

// Record durably appends the next entry — the hour's spend, the ladder and
// the position as they stand — and then writes a checkpoint if one is due.
// A failed append records nothing and keeps the numbering.
func (j *Journal) Record(spentUSD float64) error {
	e := j.entry()
	e.SpentUSD = spentUSD
	if err := j.store.Append(e); err != nil {
		return err
	}
	j.next++
	if !state.SnapshotDue(j.next) {
		return nil
	}
	return j.checkpoint(e)
}

// Checkpoint writes a checkpoint of the state as it stands; capperd calls
// it on shutdown.
func (j *Journal) Checkpoint() error { return j.checkpoint(j.entry()) }

// Close releases the state directory.
func (j *Journal) Close() error { return j.store.Close() }

// entry is the ladder and position as they stand, numbered as the next
// record.
func (j *Journal) entry() state.Entry {
	e := state.Entry{Hour: j.next}
	if j.ladder != nil {
		ls := j.ladder.Snapshot()
		e.Resilient = &ls
	}
	e.Peaks, e.BatterySoCMWh = j.pos.Snapshot()
	return e
}

// checkpoint writes e's state with the carried ledger and forecast as the
// checkpoint at the current cursor.
func (j *Journal) checkpoint(e state.Entry) error {
	cp := state.Checkpoint{Hour: j.next, Forecast: j.fc, Resilient: e.Resilient,
		Peaks: e.Peaks, BatterySoCMWh: e.BatterySoCMWh}
	if j.budget != nil {
		bs := j.budget.Snapshot()
		cp.Budget = &bs
	}
	return j.store.WriteSnapshot(cp)
}
