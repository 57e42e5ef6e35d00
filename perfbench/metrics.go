package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// absentValue stands in the result line for a metric that has no
// counter, or no meaning, on the workload; the report's "absent" map
// says why. Every measured metric is non-negative, so it cannot be
// mistaken for a measurement.
const absentValue = -1

// metricSet is the named metrics of one invocation, in the order they
// were set.
type metricSet struct {
	names  []string
	values map[string]metric
	absent map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: make(map[string]metric), absent: make(map[string]string)}
}

func (s *metricSet) set(name, unit string, v float64) {
	s.names = append(s.names, name)
	s.values[name] = metric{Value: v, Unit: unit}
}

// markAbsent records that name is not measured on this workload.
func (s *metricSet) markAbsent(name, unit, why string) {
	s.set(name, unit, absentValue)
	s.absent[name] = why
}

// table renders the metrics as aligned text for a human reader.
func (s *metricSet) table() string {
	var b strings.Builder
	for _, n := range s.names {
		m := s.values[n]
		if why, ok := s.absent[n]; ok {
			fmt.Fprintf(&b, "%-28s %14s %-14s (%s)\n", n, "absent", m.Unit, why)
			continue
		}
		fmt.Fprintf(&b, "%-28s %14.6g %-14s\n", n, m.Value, m.Unit)
	}
	return strings.TrimRight(b.String(), "\n")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSBytes returns the process's peak resident set size (VmHWM).
func peakRSSBytes() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
