package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome. metrics, the gated ones, go into the
// final JSON line; notes are printed above it (wall-clock figures,
// metrics of one workload only, sample counts, and checks that should
// read zero such as err_ratio).
type result struct {
	attempted, failed int64
	metrics           []metric
	notes             []metric
	problems          []string
}

// add records a BENCHMARK.json metric with its documented unit.
func (r *result) add(name string, v float64) {
	r.metrics = append(r.metrics, metric{name, unitOf(name), v})
}

// note records a printed-only metric.
func (r *result) note(name, unit string, v float64) { r.notes = append(r.notes, metric{name, unit, v}) }

// fail records a problem that makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints every metric and note as "name value unit", then the
// result as one JSON object on the last line.
func (r *result) write(w io.Writer) error {
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	for _, m := range append(append([]metric(nil), r.notes...), r.metrics...) {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(parts ...[]int64) []int64 {
	var all []int64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
