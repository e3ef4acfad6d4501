package state

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"billcap/internal/core"
)

// FuzzOpen feeds arbitrary bytes to Open as the WAL or, in the second mode,
// as the only snapshot of a state directory. Open must never panic; an
// error is allowed. When Open succeeds, whatever it truncated is truncated
// for good: the WAL it leaves holds whole records only, and a second Open
// of the same directory finds no corruption and restores the same
// checkpoint.
func FuzzOpen(f *testing.F) {
	ledger := func() *Checkpoint {
		b := newLedger(f, 4)
		st := b.Snapshot()
		return &Checkpoint{Hour: 0, Budget: &st}
	}
	sealLine := func(v any) []byte {
		line, err := seal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append(line, '\n')
	}
	ls := core.ResilientState{LastGoodHour: 3, LastDemand: []float64{170, 190, 150}, LastBudget: 900, HaveBudget: true}
	two := append(sealLine(Entry{Hour: 0, SpentUSD: 3, Resilient: &ls}),
		sealLine(Entry{Hour: 1, SpentUSD: 7, BatterySoCMWh: []float64{5, 0, 0}})...)
	f.Add(two, false)
	f.Add(append(append([]byte(nil), two...), `{"crc":123,"v":{"hour":2,"spen`...), false)
	f.Add(bytes.Replace(two, []byte(`"spentUSD":7`), []byte(`"spentUSD":9`), 1), false)
	f.Add(sealLine(ledger()), true)
	f.Add(sealLine(Checkpoint{Hour: 5, Resilient: &ls, BatterySoCMWh: []float64{1, 2, 3}}), true)

	f.Fuzz(func(t *testing.T, data []byte, asSnapshot bool) {
		dir := t.TempDir()
		name := walName
		if asSnapshot {
			name = snapPrefix + "00000024" + snapSuffix
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, cp, _, err := Open(dir)
		if err != nil {
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if wal, err := os.ReadFile(filepath.Join(dir, walName)); err != nil {
			t.Fatal(err)
		} else if len(wal) > 0 && wal[len(wal)-1] != '\n' {
			t.Fatalf("Open left a WAL that ends mid-record: %q", wal)
		}
		s2, cp2, info2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open failed after a successful one: %v", err)
		}
		defer s2.Close()
		if info2.WALCorruptions != 0 {
			t.Fatalf("second Open found %d WAL corruptions; the first did not truncate durably", info2.WALCorruptions)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("second Open restored %+v, the first %+v", cp2, cp)
		}
	})
}
