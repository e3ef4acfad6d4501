package state

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/timeseries"
)

func newLedger(t testing.TB, hours int) *budget.Budgeter {
	t.Helper()
	pred := make(timeseries.Series, hours)
	for i := range pred {
		pred[i] = 1
	}
	b, err := budget.New(1000, pred)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOpenFreshDir(t *testing.T) {
	s, cp, info, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cp != nil || info.Restored {
		t.Fatalf("fresh dir restored state: cp=%v info=%+v", cp, info)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ref := newLedger(t, 10)
	spends := []float64{3, 7, 2}
	for h, sp := range spends {
		if err := ref.Record(sp); err != nil {
			t.Fatal(err)
		}
		st := ref.Snapshot()
		e := Entry{Hour: h, SpentUSD: sp}
		if h == 0 {
			// First entry has no snapshot beneath it; seed the budget via a
			// snapshot so replay has a ledger to fold into.
			init := newLedger(t, 10).Snapshot()
			if err := s.WriteSnapshot(Checkpoint{Hour: 0, Budget: &init}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		_ = st
	}
	s.Close()

	s2, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cp == nil || !info.Restored {
		t.Fatal("no checkpoint restored")
	}
	if cp.Hour != len(spends) {
		t.Fatalf("restored hour %d, want %d", cp.Hour, len(spends))
	}
	if info.WALEntriesReplayed != len(spends) {
		t.Fatalf("replayed %d entries, want %d", info.WALEntriesReplayed, len(spends))
	}
	want := ref.Snapshot()
	got := *cp.Budget
	if got.PoolUSD != want.PoolUSD || got.SpentUSD != want.SpentUSD || got.NextHour != want.NextHour {
		t.Fatalf("replayed ledger %+v != live ledger %+v", got, want)
	}
}

func TestSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ref := newLedger(t, 8)
	for h := 0; h < 2; h++ {
		if err := ref.Record(5); err != nil {
			t.Fatal(err)
		}
	}
	bst := ref.Snapshot()
	res := &core.ResilientState{LastGoodHour: 1, LastBudget: 5, HaveBudget: true}
	if err := s.WriteSnapshot(Checkpoint{Hour: 2, Budget: &bst, Resilient: res}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Record(9); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Hour: 2, SpentUSD: 9, Resilient: &core.ResilientState{LastGoodHour: 2, LastBudget: 9, HaveBudget: true}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cp == nil || cp.Hour != 3 {
		t.Fatalf("restored checkpoint %+v, want hour 3", cp)
	}
	if cp.Budget.SpentUSD != ref.Spent() || cp.Budget.PoolUSD != ref.Pool() {
		t.Fatalf("ledger mismatch: %+v vs spent=%v pool=%v", cp.Budget, ref.Spent(), ref.Pool())
	}
	if cp.Resilient == nil || cp.Resilient.LastGoodHour != 2 {
		t.Fatalf("resilient state not taken from WAL tail: %+v", cp.Resilient)
	}
	if info.WALEntriesReplayed != 1 {
		t.Fatalf("replayed %d, want 1", info.WALEntriesReplayed)
	}
}

func TestCorruptWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	init := newLedger(t, 8).Snapshot()
	if err := s.WriteSnapshot(Checkpoint{Hour: 0, Budget: &init}); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if err := s.Append(Entry{Hour: h, SpentUSD: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a torn write: half a record at the end.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":123,"v":{"hour":2,"spen`)
	f.Close()

	s2, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Hour != 2 {
		t.Fatalf("restored %+v, want the 2 intact hours", cp)
	}
	if info.WALCorruptions == 0 {
		t.Fatal("torn tail not counted as corruption")
	}

	// The tail is gone from disk: appending and reopening must work cleanly.
	if err := s2.Append(Entry{Hour: 2, SpentUSD: 1}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, cp3, info3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if cp3.Hour != 3 || info3.WALCorruptions != 0 {
		t.Fatalf("after truncate-and-continue: cp=%+v info=%+v", cp3, info3)
	}
}

func TestCRCMismatchDropsRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	init := newLedger(t, 8).Snapshot()
	if err := s.WriteSnapshot(Checkpoint{Hour: 0, Budget: &init}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Hour: 0, SpentUSD: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Hour: 1, SpentUSD: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip the second record's spend in place: still valid JSON, wrong CRC.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"spentUSD":2`, `"spentUSD":9`, 1)
	if mutated == string(data) {
		t.Fatal("test setup: spend not found in WAL")
	}
	if err := os.WriteFile(walPath, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cp == nil || cp.Hour != 1 {
		t.Fatalf("restored %+v, want only the intact first hour", cp)
	}
	if info.WALCorruptions == 0 {
		t.Fatal("CRC mismatch not counted")
	}
}

func TestCorruptSnapshotFallsBackAndReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := newLedger(t, 8)
	if err := ref.Record(4); err != nil {
		t.Fatal(err)
	}
	old := ref.Snapshot()
	if err := s.WriteSnapshot(Checkpoint{Hour: 1, Budget: &old}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Record(6); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Hour: 1, SpentUSD: 6}); err != nil {
		t.Fatal(err)
	}
	newer := ref.Snapshot()
	if err := s.WriteSnapshot(Checkpoint{Hour: 2, Budget: &newer}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest snapshot wholesale: restore must fall back to the
	// hour-1 generation and rebuild hour 1 from the compacted WAL.
	names := snapshotNames(dir)
	if len(names) != 2 {
		t.Fatalf("want 2 snapshot generations, have %v", names)
	}
	if err := os.WriteFile(filepath.Join(dir, names[1]), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cp == nil || cp.Hour != 2 {
		t.Fatalf("restored %+v, want hour 2 via fallback snapshot + WAL", cp)
	}
	if cp.Budget.SpentUSD != ref.Spent() || cp.Budget.PoolUSD != ref.Pool() {
		t.Fatalf("ledger %+v, want spent=%v pool=%v", cp.Budget, ref.Spent(), ref.Pool())
	}
	if info.SnapshotFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", info.SnapshotFallbacks)
	}
	if info.WALEntriesReplayed != 1 {
		t.Fatalf("replayed %d WAL entries, want 1", info.WALEntriesReplayed)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for h := 1; h <= 5; h++ {
		if err := s.WriteSnapshot(Checkpoint{Hour: h}); err != nil {
			t.Fatal(err)
		}
	}
	names := snapshotNames(dir)
	if len(names) != snapKeep {
		t.Fatalf("pruning kept %d snapshots (%v), want %d", len(names), names, snapKeep)
	}
}

func TestReplayGapFailsLoudly(t *testing.T) {
	init := newLedger(t, 8).Snapshot()
	cp := &Checkpoint{Hour: 0, Budget: &init}
	_, _, err := Replay(cp, []Entry{{Hour: 0, SpentUSD: 1}, {Hour: 2, SpentUSD: 1}})
	if err == nil {
		t.Fatal("replay accepted a WAL gap")
	}
}

func TestReplaySkipsSupersededEntries(t *testing.T) {
	ref := newLedger(t, 8)
	if err := ref.Record(3); err != nil {
		t.Fatal(err)
	}
	snap := ref.Snapshot()
	// The WAL still holds hour 0 (crash between snapshot rename and WAL
	// truncation): replay must skip it, not double-record.
	cp, replayed, err := Replay(&Checkpoint{Hour: 1, Budget: &snap}, []Entry{{Hour: 0, SpentUSD: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 || cp.Budget.SpentUSD != 3 {
		t.Fatalf("superseded entry not skipped: replayed=%d ledger=%+v", replayed, cp.Budget)
	}
}

// TestRestoreIgnoresLegacyEWMAKey pins that a state directory written when
// snapshots and WAL entries still carried an "ewma" smoother field restores
// as before: the key is ignored and everything beside it comes back.
func TestRestoreIgnoresLegacyEWMAKey(t *testing.T) {
	withEWMA := func(v any) []byte {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m["ewma"] = map[string]any{"alpha": 0.2, "value": 5.5, "seen": true}
		line, err := seal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	dir := t.TempDir()
	ref := newLedger(t, 10)
	for _, sp := range []float64{3, 7} {
		if err := ref.Record(sp); err != nil {
			t.Fatal(err)
		}
	}
	bs := ref.Snapshot()
	snap := filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, 2, snapSuffix))
	if err := os.WriteFile(snap, withEWMA(Checkpoint{Hour: 2, Budget: &bs}), 0o644); err != nil {
		t.Fatal(err)
	}
	ls := core.ResilientState{LastGoodHour: -1}
	var wal []byte
	for h, sp := range []float64{4, 1} {
		if err := ref.Record(sp); err != nil {
			t.Fatal(err)
		}
		wal = append(wal, withEWMA(Entry{Hour: 2 + h, SpentUSD: sp, Resilient: &ls})...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.WALCorruptions != 0 || info.SnapshotFallbacks != 0 || info.WALEntriesReplayed != 2 {
		t.Fatalf("restore info %+v, want 2 clean WAL entries on a clean snapshot", info)
	}
	want := ref.Snapshot()
	if cp == nil || cp.Hour != 4 || cp.Resilient == nil || cp.Budget == nil || !reflect.DeepEqual(*cp.Budget, want) {
		t.Fatalf("restored %+v, want hour 4, the ladder and ledger %+v", cp, want)
	}
}
