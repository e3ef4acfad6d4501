// Command capsim regenerates the paper's evaluation tables and figures
// (paper §VII) on the reproduction's scenario.
//
// Usage:
//
//	capsim -exp all                 # every experiment, full 4-week month
//	capsim -exp fig3 -weeks 1       # one experiment on a 1-week month
//	capsim -exp fig78 -series out/  # also dump the hourly series as CSV
//
// Experiments: fig1 fig1derived fig3 fig4 fig56 fig78 fig9 fig10 solver ablation robustness hetero hierarchy baselines battery tariff all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"billcap/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig1 fig1derived fig3 fig4 fig56 fig78 fig9 fig10 solver ablation robustness hetero hierarchy baselines battery tariff all")
	weeks := flag.Int("weeks", 4, "weeks of the evaluated month to simulate (1-4)")
	seriesDir := flag.String("series", "", "directory to dump hourly series CSVs into (optional)")
	format := flag.String("format", "text", "table output format: text | md | csv")
	flag.Parse()

	if err := run(*exp, *weeks, *seriesDir, *format); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

// renderer returns the table renderer for an output format.
func renderer(format string) (func(experiments.Result) string, error) {
	switch format {
	case "text":
		return experiments.Result.Render, nil
	case "md":
		return func(r experiments.Result) string { return r.Table.RenderMarkdown() }, nil
	case "csv":
		return func(r experiments.Result) string { return r.Table.RenderCSV() }, nil
	}
	return nil, fmt.Errorf("unknown format %q (want text, md or csv)", format)
}

func run(exp string, weeks int, seriesDir, format string) error {
	render, err := renderer(format)
	if err != nil {
		return err
	}
	type runner func() (experiments.Result, error)
	wrap := func(f func(int) (experiments.Result, error)) runner {
		return func() (experiments.Result, error) { return f(weeks) }
	}
	all := []struct {
		name string
		run  runner
	}{
		{"fig1", func() (experiments.Result, error) { return experiments.Fig1(), nil }},
		{"fig1derived", func() (experiments.Result, error) { return experiments.Fig1Derived() }},
		{"fig3", wrap(experiments.Fig3)},
		{"fig4", wrap(experiments.Fig4)},
		{"fig56", wrap(experiments.Fig56)},
		{"fig78", wrap(experiments.Fig78)},
		{"fig9", wrap(experiments.Fig9)},
		{"fig10", wrap(experiments.Fig10)},
		{"solver", func() (experiments.Result, error) { return experiments.Solver(nil) }},
		{"ablation", wrap(experiments.Ablation)},
		{"robustness", wrap(experiments.Robustness)},
		{"hetero", func() (experiments.Result, error) { return experiments.Hetero() }},
		{"hierarchy", func() (experiments.Result, error) { return experiments.Hierarchy() }},
		{"baselines", wrap(experiments.Baselines)},
		{"battery", wrap(experiments.Battery)},
		{"flashcrowd", wrap(experiments.FlashCrowd)},
		{"tariff", wrap(experiments.Tariff)},
	}
	ran := false
	for _, e := range all {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(render(res))
		if seriesDir != "" && len(res.Series) > 0 {
			if err := dumpSeries(seriesDir, e.name, res); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func dumpSeries(dir, exp string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, s := range res.Series {
		slug := strings.ReplaceAll(strings.ReplaceAll(name, " ", "-"), "/", "-")
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", exp, slug))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d hours)\n", path, len(s))
	}
	return nil
}
