package controller

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/forecast"
	"billcap/internal/pricing"
	"billcap/internal/state"
	"billcap/internal/timeseries"
)

func openJournal(t *testing.T, dir string, pos *Position, ladder *core.Resilient) (*Journal, *state.Checkpoint, state.RestoreInfo) {
	t.Helper()
	j, cp, info, err := Open(dir, pos, ladder)
	if err != nil {
		t.Fatal(err)
	}
	return j, cp, info
}

func paperLadder(t *testing.T) *core.Resilient {
	t.Helper()
	sys, err := core.NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewResilient(sys, core.ResilientOptions{})
}

// TestJournalNumbersRecordsAcrossRestarts pins the journal's own numbering:
// records are 0, 1, 2, … and a reopened journal resumes at the restored
// cursor, across a checkpoint and a WAL tail alike.
func TestJournalNumbersRecordsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	j, cp, _ := openJournal(t, dir, newTestPosition(t, 0), nil)
	if cp != nil || j.Next() != 0 {
		t.Fatalf("fresh dir restored %+v at cursor %d", cp, j.Next())
	}
	for k := 0; k < 30; k++ {
		if err := j.Record(float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, cp, info := openJournal(t, dir, newTestPosition(t, 0), nil)
	defer j.Close()
	if j.Next() != 30 || cp.Hour != 30 || info.Hour != 30 {
		t.Fatalf("reopened at cursor %d (checkpoint %d, info %d), want 30", j.Next(), cp.Hour, info.Hour)
	}
	if info.WALEntriesReplayed != 6 {
		t.Errorf("replayed %d WAL entries on top of the hour-24 checkpoint, want 6", info.WALEntriesReplayed)
	}
}

// TestJournalRestoresPositionAndLadder pins Open's restore and Record's
// entry: the position and ladder come back as recorded, checkpoints carry
// the budget ledger and forecast the driver handed over, and an
// energy-only position writes no peak ledger and no charge levels.
func TestJournalRestoresPositionAndLadder(t *testing.T) {
	dir := t.TempDir()
	pos, ladder := newTestPosition(t, 1000), paperLadder(t)
	j, _, _ := openJournal(t, dir, pos, ladder)
	b, err := budget.New(1e6, timeseries.Series{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	fc := &forecast.HourOfWeekState{}
	j.Carry(b, fc)
	in := core.HourInput{Hour: 41, TotalLambda: 1.5e12, PremiumLambda: 1.2e12, DemandMW: []float64{170, 190, 150}, BudgetUSD: 900}
	dec := ladder.Decide(in)
	draw := []float64{0, 0, 0}
	for i, a := range dec.Sites {
		draw[i] = a.PowerMW
	}
	if _, _, err := pos.Commit(in, dec, draw, in.DemandMW); err != nil {
		t.Fatal(err)
	}
	if err := b.Record(500); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(500); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	pos2, ladder2 := newTestPosition(t, 1000), paperLadder(t)
	j2, cp, _ := openJournal(t, dir, pos2, ladder2)
	defer j2.Close()
	if cp.Budget == nil || cp.Budget.NextHour != 1 || cp.Forecast == nil {
		t.Errorf("checkpoint dropped the carried ledger or forecast: %+v", cp)
	}
	mustJSON := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if got, want := mustJSON(ladder2.Snapshot()), mustJSON(ladder.Snapshot()); got != want {
		t.Errorf("restored ladder %s, want %s", got, want)
	}
	gotPeaks, gotSoC := pos2.Snapshot()
	wantPeaks, wantSoC := pos.Snapshot()
	if mustJSON(gotPeaks) != mustJSON(wantPeaks) || mustJSON(gotSoC) != mustJSON(wantSoC) {
		t.Errorf("restored position %v %v, want %v %v", gotPeaks, gotSoC, wantPeaks, wantSoC)
	}

	plain, err := New(pricing.Tariff{Energy: pricing.PaperPolicies(pricing.Policy1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stateful() {
		t.Error("energy-only position reports state")
	}
	if peaks, socs := plain.Snapshot(); peaks != nil || socs != nil {
		t.Errorf("energy-only position snapshots %v %v", peaks, socs)
	}
}

// TestJournalResumesRequestHourNumberedDir pins that a state directory
// whose WAL was numbered by request hour — hours 100..122 and then 5 —
// still restores: the last entry written wins, and the journal numbers on
// from the replay cursor.
func TestJournalResumesRequestHourNumberedDir(t *testing.T) {
	dir := t.TempDir()
	store, _, _, err := state.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for h := 100; h <= 123; h++ {
		e := state.Entry{Hour: h, BatterySoCMWh: []float64{float64(h - 100), 0, 0}}
		if h == 123 {
			e = state.Entry{Hour: 5, BatterySoCMWh: []float64{5, 0, 0}}
		}
		if err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	pos := newTestPosition(t, 0)
	j, _, _ := openJournal(t, dir, pos, nil)
	defer j.Close()
	if _, socs := pos.Snapshot(); socs[0] != 5 {
		t.Errorf("restored charge %v, want the last entry's 5 MWh", socs[0])
	}
	if j.Next() != 123 {
		t.Errorf("cursor %d, want 123", j.Next())
	}
}

// TestJournalOpenRejectsWrongFleet pins that a recorded position for a
// different number of sites fails Open instead of every later commit.
func TestJournalOpenRejectsWrongFleet(t *testing.T) {
	dir := t.TempDir()
	store, _, _, err := state.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(state.Entry{BatterySoCMWh: []float64{5, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if j, _, _, err := Open(dir, newTestPosition(t, 0), nil); err == nil {
		j.Close()
		t.Fatal("2-site position restored into 3 sites")
	}
}

// TestJournalRestoresDirWithSolverCacheStats pins that a state directory
// written before the solver's presolve and warm-start counters were removed
// still restores. Such WAL entries carry "PresolveFixed" and "WarmStarted"
// keys in the ladder's last-good decision, and each record's CRC covers
// those payload bytes; the keys are now unknown and must be ignored, not
// counted as corruption.
func TestJournalRestoresDirWithSolverCacheStats(t *testing.T) {
	pos, ladder := newTestPosition(t, 1000), paperLadder(t)
	in := core.HourInput{Hour: 7, TotalLambda: 1.5e12, PremiumLambda: 1.2e12, DemandMW: []float64{170, 190, 150}, BudgetUSD: 900}
	dec := ladder.Decide(in)
	draw := make([]float64, len(dec.Sites))
	for i, a := range dec.Sites {
		draw[i] = a.PowerMW
	}
	if _, _, err := pos.Commit(in, dec, draw, in.DemandMW); err != nil {
		t.Fatal(err)
	}

	var wal []byte
	for hour := 0; hour < 2; hour++ {
		ls := ladder.Snapshot()
		if ls.LastGood == nil {
			t.Fatal("test setup: the ladder kept no last-good decision")
		}
		e := state.Entry{Hour: hour, Resilient: &ls}
		e.Peaks, e.BatterySoCMWh = pos.Snapshot()
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(payload, &m); err != nil {
			t.Fatal(err)
		}
		solver := m["resilient"].(map[string]any)["lastGood"].(map[string]any)["Solver"].(map[string]any)
		solver["PresolveFixed"], solver["WarmStarted"] = 4, 2
		if payload, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		wal = append(wal, fmt.Sprintf(`{"crc":%d,"v":%s}`+"\n", crc32.ChecksumIEEE(payload), payload)...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	pos2, ladder2 := newTestPosition(t, 1000), paperLadder(t)
	j, _, info := openJournal(t, dir, pos2, ladder2)
	defer j.Close()
	if info.WALCorruptions != 0 || info.WALEntriesReplayed != 2 || j.Next() != 2 {
		t.Fatalf("restore info %+v at cursor %d, want 2 clean entries and cursor 2", info, j.Next())
	}
	mustJSON := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if got, want := mustJSON(ladder2.Snapshot()), mustJSON(ladder.Snapshot()); got != want {
		t.Errorf("restored ladder %s, want %s", got, want)
	}
	gotPeaks, gotSoC := pos2.Snapshot()
	wantPeaks, wantSoC := pos.Snapshot()
	if mustJSON(gotPeaks) != mustJSON(wantPeaks) || mustJSON(gotSoC) != mustJSON(wantSoC) {
		t.Errorf("restored position %v %v, want %v %v", gotPeaks, gotSoC, wantPeaks, wantSoC)
	}
}
