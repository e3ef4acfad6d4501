package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample holds the billcap_* series of one /metrics scrape, keyed by the
// series as exposed: name plus label block, e.g.
// `billcap_http_request_seconds_sum{route="/v1/decide"}`.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition and keeps every billcap_*
// counter, gauge and histogram series (buckets, _sum and _count).
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "billcap_") {
			continue
		}
		// The value follows the last space; label values never hold one
		// unescaped in this exposition, but splitting from the right is
		// safe either way.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every series in after; a series absent
// before counts from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
