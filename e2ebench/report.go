package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one reported number. n is the sample count behind it and note
// says which percentile or base it is, so every figure carries its base.
// An informational metric is printed in the report but left out of the
// JSON result.
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
	info       bool
}

// tally counts operations attempted and those that failed a check.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// result is one run's outcome: the metrics to print and whether every
// answer checked out.
type result struct {
	tally
	metrics []metric
	notes   []string
}

func (r *result) add(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note})
}

// addInfo adds a metric to the report only: one the host's noise moves too
// far between runs to serve as a bound (see main.go).
func (r *result) addInfo(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note, info: true})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// environment describes where the numbers were taken.
func environment(workloadName string, seed int64, seconds int, trace bool) []string {
	commit := "unknown"
	// The ceiling keeps git from reporting an enclosing repository's commit
	// when the checkout itself is not a git work tree.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host, _ := os.Hostname()
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v", workloadName, seed, seconds, trace),
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s/%s host=%s commit=%s src=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, host, commit, sourceDigest()),
	}
}

// sourceDigest hashes the Go sources under the working directory (paths and
// contents, hidden directories skipped), naming the code under test where
// no commit is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// print writes the human-readable report, then the one-line JSON result
// the last line of standard output must carry.
func (r *result) print(w io.Writer, env []string) error {
	for _, e := range env {
		fmt.Fprintf(w, "# %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	out := jsonResult{
		Correct:   r.failed == 0 && r.firstErr == nil,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range r.metrics {
		mark := ""
		if m.info {
			mark = "(info) "
		}
		fmt.Fprintf(w, "%-24s %14.6g %-6s n=%d  %s%s\n", m.name, m.value, m.unit, m.n, mark, m.note)
		if !m.info {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", r.firstErr)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
