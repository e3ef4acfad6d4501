package main

import (
	"os"
	"strings"
	"testing"

	"billcap/internal/experiments"
)

// tableRows returns the rows of the markdown table whose header line is
// header: the "|" lines after its separator, up to the first other line.
func tableRows(lines []string, header string) []string {
	for i, l := range lines {
		if l != header {
			continue
		}
		var rows []string
		for _, r := range lines[i+2:] {
			if !strings.HasPrefix(r, "|") {
				break
			}
			rows = append(rows, r)
		}
		return rows
	}
	return nil
}

// TestEXPERIMENTSTariffTableMatchesCapsim renders the tariff experiment as
// `capsim -exp tariff -format md` does (full four-week month) and requires
// every row of the EXPERIMENTS.md tariff table to equal it, so a stale
// figure in the document fails here.
func TestEXPERIMENTSTariffTableMatchesCapsim(t *testing.T) {
	res, err := experiments.Tariff(4)
	if err != nil {
		t.Fatal(err)
	}
	render, err := renderer("md")
	if err != nil {
		t.Fatal(err)
	}
	rendered := strings.Split(render(res), "\n")
	header := ""
	for _, l := range rendered {
		if strings.HasPrefix(l, "|") {
			header = l
			break
		}
	}
	want := tableRows(rendered, header)
	if len(want) == 0 {
		t.Fatalf("capsim rendered no tariff rows:\n%s", render(res))
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := tableRows(strings.Split(string(doc), "\n"), header)
	if len(got) != len(want) {
		t.Fatalf("EXPERIMENTS.md tariff table has %d rows under %q, capsim renders %d:\n%s",
			len(got), header, len(want), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EXPERIMENTS.md tariff row %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
