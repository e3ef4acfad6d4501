package main

import (
	"bufio"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
)

// readmeFlagTable returns the name → default cells of README's capperd flag
// table, with the markdown stripped: "`-addr`" → "addr", "*(empty)*" → "".
func readmeFlagTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "| Flag | Default |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		name := strings.TrimPrefix(strings.Trim(strings.TrimSpace(cells[1]), "`"), "-")
		def := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if def == "*(empty)*" {
			def = ""
		}
		if _, dup := rows[name]; dup {
			t.Errorf("README lists -%s twice", name)
		}
		rows[name] = def
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("README has no capperd flag table")
	}
	return rows
}

// TestREADMEFlagTableMatchesFlags keeps README's flag table in step with the
// flags capperd registers: the same names, and defaults that parse to the
// registered default (so "2.0" documents a float flag whose default is 2).
func TestREADMEFlagTableMatchesFlags(t *testing.T) {
	documented := readmeFlagTable(t)
	fs := flags(&config{})
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	var listed []string
	for name := range documented {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	if strings.Join(listed, " ") != strings.Join(registered, " ") {
		t.Fatalf("README documents flags %v, capperd registers %v", listed, registered)
	}
	for _, name := range registered {
		parsed := flags(&config{})
		if err := parsed.Set(name, documented[name]); err != nil {
			t.Errorf("-%s: README default %q does not parse: %v", name, documented[name], err)
			continue
		}
		if got, want := parsed.Lookup(name).Value.String(), fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s: README default %q means %q, registered default is %q",
				name, documented[name], got, want)
		}
	}
}
