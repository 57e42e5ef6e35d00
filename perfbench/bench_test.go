package main

// The benchmark's self-test: go -C perfbench test .
// It runs from a repository checkout; the end-to-end test drives
// run.sh from the repository root.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// meanLatency is the op-weighted mean simulated latency of jobs.
func meanLatency(t *testing.T, jobs []job) float64 {
	t.Helper()
	var lat float64
	var ops uint64
	for _, j := range jobs {
		r := j.run()
		if r.failure != "" {
			t.Fatalf("%s: %s", j.label, r.failure)
		}
		lat += r.latency * float64(r.ops)
		ops += r.ops
	}
	return lat / float64(ops)
}

// TestKVBacklogGuard checks that kv-serve's arrival period sits below
// capacity: doubling the request count must not make the mean simulated
// latency worse by more than the benchmark's tightest end-to-end bound.
// (It falls instead: the wipes and the flash crowd have fixed lengths,
// so a longer run spends a smaller share of its requests in them.)
// ext-kv's own period (220 cycles, about 2x overloaded) is the
// counter-example: there the backlog grows with run length and the
// guard must trip.
func TestKVBacklogGuard(t *testing.T) {
	bound := math.Inf(1)
	for _, m := range loadBenchmarkFile(t).EndToEnd {
		bound = min(bound, m.Bound)
	}
	const jobs = 6
	growth := func(period float64) float64 {
		at := func(requests uint64) float64 {
			js := make([]job, jobs)
			for i := range js {
				cfg := kvConfig(jobSeed(7, i), requests)
				cfg.Load.Period = period
				js[i] = kvJob(fmt.Sprintf("kv/%d", i), cfg)
			}
			return meanLatency(t, js)
		}
		base, doubled := at(kvRequests), at(2*kvRequests)
		t.Logf("period %v: mean latency %.0f cycles at %d requests, %.0f at %d",
			period, base, kvRequests, doubled, 2*kvRequests)
		return doubled/base - 1
	}
	if g := growth(kvPeriod); g > bound {
		t.Errorf("kv-serve latency grew %.1f%% when the request count doubled; bound %.0f%%", 100*g, 100*bound)
	}
	if g := growth(220); g <= bound {
		t.Errorf("overloaded period 220: latency grew only %.1f%%; the guard has no teeth", 100*g)
	}
}

func TestJobSeedsDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(1); seed <= 20; seed++ {
		for i := 0; i < jobsPerPass; i++ {
			s := jobSeed(seed, i)
			if s == 0 || seen[s] {
				t.Fatalf("jobSeed(%d, %d) = %d repeats or is zero", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	var c checker
	j := job{label: "x"}
	c.record("pass", j, jobResult{digest: "a"})
	c.record("pass", j, jobResult{digest: "a"})
	c.record("traced", j, jobResult{digest: "b"})
	c.record("pass", job{label: "y"}, jobResult{digest: "c", failure: "invariant violated"})
	if c.attempted != 4 || c.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2: %v", c.attempted, c.failed, c.failures)
	}
}

func TestSlowJobSeconds(t *testing.T) {
	ms := func(ds ...int) passResult {
		p := passResult{}
		for _, d := range ds {
			p.jobTime = append(p.jobTime, time.Duration(d)*time.Millisecond)
		}
		return p
	}
	// Three passes: the 95th percentile lies 0.9 of the way from the
	// middle time to the slowest.
	got := slowJobSeconds([]passResult{ms(30, 10, 20), ms(10, 40, 25), ms(20, 20, 5)})
	want := []float64{0.029, 0.038, 0.0245}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("slowJobSeconds = %v, want %v", got, want)
		}
	}
}

// TestResultLines runs every workload for one second in both modes and
// checks the result line against BENCHMARK.json: every declared metric
// is present with its declared unit, absent ones carry absentValue and
// are listed in the report, and every output check passed.
func TestResultLines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := make(map[string]string)
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			args := append(append([]string(nil), bf.Command[1:]...),
				"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace)
			cmd := exec.Command(bf.Command[0], args...)
			cmd.Dir = ".."
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, trace, err)
			}
			var res result
			var rep report
			sc := bufio.NewScanner(strings.NewReader(string(out)))
			sc.Buffer(nil, 1<<24)
			var last string
			for sc.Scan() {
				last = sc.Text()
				if r, ok := strings.CutPrefix(last, "report: "); ok {
					if err := json.Unmarshal([]byte(r), &rep); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace %s: last line %q: %v", w.Name, trace, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if want[name] != m.Unit {
					t.Errorf("%s trace %s: %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, want[name])
				}
				_, absent := rep.Absent[name]
				// Only the tracing overhead, a difference of two timings,
				// may come out below zero.
				negative := m.Value < 0 && name != "trace.overhead_frac"
				if absent != (m.Value == absentValue) || (!absent && negative) {
					t.Errorf("%s trace %s: %s = %v, absent=%v", w.Name, trace, name, m.Value, absent)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace %s: metrics %v, want the %d in BENCHMARK.json", w.Name, trace, got, len(want))
			}
			if rep.Nproc < 1 || rep.GOMAXPROCS < 1 || rep.GoVersion == "" || len(rep.Digests) == 0 {
				t.Errorf("%s trace %s: report lacks environment or digests: %+v", w.Name, trace, rep)
			}
		}
	}
}
