// Command perfbench is the repository benchmark. It runs one workload
// — a fixed, seeded list of simulation jobs — repeatedly for a set
// number of host seconds, checks every job's output, and prints the
// workload's metrics by name with their units. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the
// profile layer's timing off. With -trace 1 a separate traced run
// reports per-layer metrics: counter deltas per job, layer probes, and
// the tracing overhead; its spans are written under -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupRuns is how many fresh processes measure set-up time besides the
// run itself; setup_s is the median of all of them.
const setupRuns = 19

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports and traces")
	setupChild := flag.Bool("setup-child", false, "measure set-up once, print its seconds and exit")
	flag.Parse()

	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fail(2, "unknown workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1:
		fail(2, "-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fail(2, "-trace must be 0 or 1")
	}

	// An app workload runs one job at a time, and its simulated threads
	// hand off to each other at every switch. With one P a handoff stays
	// on one OS thread; with more, it wakes a thread on another CPU, and
	// how soon the host schedules that CPU was most of the run-to-run
	// noise. paper-suite keeps every CPU for the harness workers.
	if w.app {
		runtime.GOMAXPROCS(1)
	}

	// A run must end: a job that hangs fails the run instead of stalling
	// it. A set-up process gets less time than the run waiting for it.
	currentJob.Store("set-up")
	limit := time.Duration(2**seconds+120) * time.Second
	if *setupChild {
		limit = 60 * time.Second
	}
	time.AfterFunc(limit, func() {
		fail(1, "run exceeded %v; job %s did not finish", limit, currentJob.Load())
	})

	if *setupChild {
		_, _, d := setup(w, *seed)
		fmt.Println(d.Seconds())
		return
	}

	b := &bench{w: w, seed: *seed, seconds: *seconds, out: *out, start: start}
	var rep *report
	if *trace == 0 {
		rep = b.untraced()
	} else {
		rep = b.traced()
	}
	rep.finish(b)
}

// currentJob names the job in flight, for the run-time limit's message.
var currentJob atomic.Value

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

// bench holds one invocation's settings and its output checker.
type bench struct {
	w       workload
	seed    uint64
	seconds int
	out     string
	start   time.Time
	check   checker
}

// setup generates the job list and runs the first job once untimed, so
// lazy caches (btree.GenKeys, the sim pools) are filled before timing.
func setup(w workload, seed uint64) ([]job, jobResult, time.Duration) {
	t0 := time.Now()
	jobs := w.jobs(seed, runtime.NumCPU())
	currentJob.Store(jobs[0].label)
	warm := jobs[0].run()
	return jobs, warm, time.Since(t0)
}

// setupSeconds measures set-up in setupRuns fresh processes, where no
// lazy cache is warm yet, and adds own.
func (b *bench) setupSeconds(own time.Duration) []float64 {
	samples := []float64{own.Seconds()}
	exe, err := os.Executable()
	if err != nil {
		fail(1, "locate own executable: %v", err)
	}
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", b.w.name,
			"-seed", strconv.FormatUint(b.seed, 10))
		cmd.Stderr = os.Stderr
		text, err := cmd.Output()
		if err != nil {
			fail(1, "set-up run %d: %v", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(text)), 64)
		if err != nil {
			fail(1, "set-up run %d printed %q: %v", i, text, err)
		}
		samples = append(samples, v)
	}
	return samples
}

// checker counts attempted and failed jobs. A job fails when it reports
// an error or a violated invariant, or when its digest differs from the
// one the same job produced earlier in this process (another pass, the
// warm-up, or the traced run).
type checker struct {
	digests   map[string]string
	attempted int
	failed    int
	failures  []string
}

func (c *checker) record(phase string, j job, r jobResult) {
	if c.digests == nil {
		c.digests = make(map[string]string)
	}
	c.attempted++
	msg := r.failure
	if prev, ok := c.digests[j.label]; !ok {
		c.digests[j.label] = r.digest
	} else if msg == "" && prev != r.digest {
		msg = fmt.Sprintf("output digest %s differs from earlier %s", r.digest, prev)
	}
	if msg != "" {
		c.failed++
		if len(c.failures) < 10 {
			c.failures = append(c.failures, fmt.Sprintf("%s %s: %s", phase, j.label, msg))
		}
	}
}

// passResult is one timed pass over the job list.
type passResult struct {
	wall    time.Duration
	jobTime []time.Duration
	results []jobResult
}

func (p passResult) ops() uint64 {
	var n uint64
	for _, r := range p.results {
		n += r.ops
	}
	return n
}

// runPass runs every job once, in order, on this goroutine. around, when
// non-nil, wraps each job (the traced run takes counter deltas there).
func (b *bench) runPass(phase string, jobs []job, around func(i int, run func())) passResult {
	p := passResult{jobTime: make([]time.Duration, len(jobs)), results: make([]jobResult, len(jobs))}
	t0 := time.Now()
	for i, j := range jobs {
		run := func() {
			currentJob.Store(j.label)
			s := time.Now()
			p.results[i] = j.run()
			p.jobTime[i] = time.Since(s)
		}
		if around != nil {
			around(i, run)
		} else {
			run()
		}
	}
	p.wall = time.Since(t0)
	for i, j := range jobs {
		b.check.record(phase, j, p.results[i])
	}
	return p
}

// measure runs passes until d has elapsed (at least two, since the
// first only fills lazy caches).
func (b *bench) measure(jobs []job, d time.Duration) []passResult {
	var passes []passResult
	t0 := time.Now()
	for len(passes) < 2 || time.Since(t0) < d {
		passes = append(passes, b.runPass("pass", jobs, nil))
	}
	return passes
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() *report {
	rep := newReport(b, 0)
	jobs, warm, own := setup(b.w, b.seed)
	b.check.record("warmup", jobs[0], warm)
	setups := b.setupSeconds(own)

	passes := b.measure(jobs, time.Duration(b.seconds)*time.Second)
	peak, err := peakRSSBytes()
	if err != nil {
		fail(1, "%v", err)
	}

	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	// The first pass is the first run of every job but the warm-up one,
	// so it also fills their lazy caches (btree.GenKeys per job seed).
	steady := passes[1:]
	wall := quantile(walls[1:], slowQuantile)
	slow := slowJobSeconds(steady)
	jobMs := make([]float64, len(slow))
	for i, s := range slow {
		jobMs[i] = s * 1e3
	}
	m := rep.metrics
	m.set("wall_s", "s", wall)
	m.set("sim_ops_per_s", "ops/s", float64(passes[0].ops())/wall)
	// No median over jobs: half of cn-msg's jobs are CM (about 18 ms)
	// and half RPC (about 26 ms), so it falls in the gap between the
	// groups and moved 12% between seeds. The 75th percentile lies
	// inside the slower group.
	m.set("job_ms_p75", "ms", quantile(jobMs, 0.75))
	m.set("setup_s", "s", median(setups))
	m.set("host_mem_mb", "MB", float64(peak)/(1<<20))

	rep.Samples = map[string]int{"passes": len(steady), "jobs": len(steady) * len(slow), "setups": len(setups)}
	rep.PassWalls = walls
	rep.SlowJobs = slow
	rep.Setups = setups
	rep.Simulated = simulated(b.w, passes[0])
	return rep
}

// slowQuantile is the quantile of a run's host times that the
// end-to-end times report. The host is shared, and its speed moves
// between levels for seconds to minutes at a time: at the slow levels
// pass times hold within a few percent; at faster ones they vary by up
// to a factor of 1.9. Medians and minima
// over a run moved with the mix of levels by more than the bounds, so
// the times take the slow level a run nearly always visits, short of
// its one or two slowest passes. A slower program raises it too.
const slowQuantile = 0.95

// slowJobSeconds returns each job's slowQuantile host time over passes.
func slowJobSeconds(passes []passResult) []float64 {
	slow := make([]float64, len(passes[0].jobTime))
	times := make([]float64, len(passes))
	for i := range slow {
		for k, p := range passes {
			times[k] = p.jobTime[i].Seconds()
		}
		slow[i] = quantile(times, slowQuantile)
	}
	return slow
}

// simulated summarizes a pass's simulated figures. They are
// deterministic per seed, so any pass gives the same values.
func simulated(w workload, p passResult) map[string]float64 {
	if !w.app {
		return nil
	}
	var thr, lat, words float64
	var ops uint64
	for _, r := range p.results {
		thr += r.throughput
		lat += r.latency * float64(r.ops)
		words += r.words * float64(r.ops)
		ops += r.ops
	}
	return map[string]float64{
		"sim_throughput":     thr / float64(len(p.results)),
		"sim_latency_cycles": lat / float64(ops),
		"sim_words_per_op":   words / float64(ops),
	}
}

// report is the full record of one invocation. It is printed as one
// JSON line before the result line and saved under -out.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Nproc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Seconds    int                `json:"seconds"`
	Samples    map[string]int     `json:"samples,omitempty"`
	PassWalls  []float64          `json:"pass_walls_s,omitempty"`
	SlowJobs   []float64          `json:"slow_job_s,omitempty"`
	Setups     []float64          `json:"setups_s,omitempty"`
	Simulated  map[string]float64 `json:"simulated,omitempty"`
	Absent     map[string]string  `json:"absent,omitempty"`
	Digests    map[string]string  `json:"digests"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	HostSecs   float64            `json:"host_seconds"`

	metrics *metricSet
}

func newReport(b *bench, trace int) *report {
	return &report{
		Workload: b.w.name, Seed: b.seed, Trace: trace, Seconds: b.seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		metrics: newMetricSet(),
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the report and the result line, saves the report, and
// exits nonzero when any output check failed.
func (rep *report) finish(b *bench) {
	rep.Digests = b.check.digests
	rep.Failures = b.check.failures
	rep.Absent = rep.metrics.absent
	if b.check.attempted > 0 {
		rep.FailedFrac = float64(b.check.failed) / float64(b.check.attempted)
	}
	rep.HostSecs = time.Since(b.start).Seconds()
	line, err := json.Marshal(rep)
	if err != nil {
		fail(1, "encode report: %v", err)
	}
	fmt.Println(rep.metrics.table())
	fmt.Printf("report: %s\n", line)
	path := filepath.Join(b.out, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace))
	if err := writeFile(path, line); err != nil {
		fail(1, "%v", err)
	}
	res := result{
		Correct:   b.check.failed == 0,
		Attempted: b.check.attempted,
		Failed:    b.check.failed,
		Metrics:   rep.metrics.values,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(1, "encode result: %v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
		}
		os.Exit(1)
	}
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create %s: %w", filepath.Dir(path), err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
