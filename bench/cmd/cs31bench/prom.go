package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one read of labd's GET /metrics: every sample keyed by its
// series, "name{labels}".
type scrape map[string]float64

func readMetrics(c *http.Client, baseURL string) (scrape, error) {
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(body)
}

// parseMetrics reads Prometheus text exposition: comment lines are
// skipped, every other line is "series value".
func parseMetrics(body []byte) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds the samples of one metric name whose labels contain every
// given fragment (for example `route="POST /v1/`).
func (s scrape) sum(name string, fragments ...string) float64 {
	var total float64
	for series, v := range s {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || rest != "" && rest[0] != '{' {
			continue
		}
		match := true
		for _, f := range fragments {
			if !strings.Contains(rest, f) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after minus before for one metric name and label filter.
func delta(before, after scrape, name string, fragments ...string) float64 {
	return after.sum(name, fragments...) - before.sum(name, fragments...)
}

// meanDelta is the mean of a histogram over the interval between two
// scrapes: Δsum / Δcount, in seconds.
func meanDelta(before, after scrape, hist string, fragments ...string) float64 {
	return ratio(delta(before, after, hist+"_sum", fragments...), delta(before, after, hist+"_count", fragments...))
}
