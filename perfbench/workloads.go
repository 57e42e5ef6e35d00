package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/apps/kv"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/harness"
	"compmig/internal/load"
)

// jobsPerPass is the length of every app workload's job list: enough
// samples per pass for a median and a 75th percentile with ten samples
// beyond it.
const jobsPerPass = 40

// jobResult is what the benchmark keeps of one simulation job: the
// simulated figures it reports and a digest of everything it returned.
type jobResult struct {
	ops        uint64  // simulated operations completed (1 per experiment id on paper-suite)
	throughput float64 // ops per 1000 simulated cycles
	latency    float64 // mean simulated cycles per op
	words      float64 // words sent per op
	messages   int64   // runtime plus coherence messages; -1 when the app does not report them
	drain      float64 // cycles from the last arrival to the last completion; kv only
	digest     string
	failure    string // "" when every output check held
}

type job struct {
	label string
	run   func() jobResult
}

// workload is one benchmark input set: a fixed, seeded list of jobs run
// one at a time.
type workload struct {
	name string
	// app is false for paper-suite, whose jobs are experiment ids that
	// render tables rather than report per-operation figures.
	app bool
	// reliableNet marks workloads whose messages take the network's
	// reliable path, where net.sends is not counted.
	reliableNet bool
	jobs        func(seed uint64, workers int) []job
}

var workloads = []workload{
	{name: "cn-msg", app: true, jobs: cnMsgJobs},
	{name: "bt-shmem", app: true, jobs: btShmemJobs},
	{name: "kv-serve", app: true, reliableNet: true, jobs: kvServeJobs},
	{name: "paper-suite", reliableNet: true, jobs: paperSuiteJobs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// jobSeed derives job i's simulation seed from the benchmark seed
// (splitmix64), so every job of a run gets an independent stream.
func jobSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// digest hashes a job's full simulated output. Pointer fields are
// followed by the JSON encoder; extra carries state it cannot see.
func digest(v any, extra string) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte(extra))
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cnMsgJobs: 8x8 bitonic counting network (24 balancer processors),
// closed loop, 16 requesters with think 0, alternating static
// computation migration and static RPC.
func cnMsgJobs(seed uint64, _ int) []job {
	jobs := make([]job, jobsPerPass)
	for i := range jobs {
		scheme := core.Scheme{Mechanism: core.Migrate}
		if i%2 == 1 {
			scheme = core.Scheme{Mechanism: core.RPC}
		}
		cfg := countnet.Config{
			Width: 8, Threads: 16, Think: 0, Scheme: scheme, Seed: jobSeed(seed, i),
			Warmup: 10000, Measure: 200000,
		}
		jobs[i] = job{
			label: fmt.Sprintf("cn-msg/%d/%s", i, scheme.Name()),
			run: func() jobResult {
				r := countnet.RunExperiment(cfg)
				out := jobResult{
					ops: r.Ops, throughput: r.Throughput, latency: r.MeanLatency,
					words: r.WordsPerOp, messages: int64(r.Messages), failure: r.InvariantErr,
				}
				if r.Ops == 0 && out.failure == "" {
					out.failure = "no requests completed"
				}
				out.setDigest(r, "")
				return out
			},
		}
	}
	return jobs
}

// btShmemJobs: the paper's B-tree (10,000 initial keys) under static
// shared memory, closed loop, 16 threads with think 0, half lookups and
// half inserts.
func btShmemJobs(seed uint64, _ int) []job {
	jobs := make([]job, jobsPerPass)
	for i := range jobs {
		cfg := btree.Config{
			InitialKeys: 10000, Threads: 16, Think: 0, LookupFrac: 0.5,
			Scheme: core.Scheme{Mechanism: core.SharedMem}, Seed: jobSeed(seed, i),
			Warmup: 10000, Measure: 40000,
		}
		jobs[i] = job{
			label: fmt.Sprintf("bt-shmem/%d", i),
			run: func() jobResult {
				r := btree.RunExperiment(cfg)
				out := jobResult{
					ops: r.Ops, throughput: r.Throughput, latency: r.MeanLatency,
					words: r.WordsPerOp, messages: -1, failure: r.InvariantErr,
				}
				if r.Ops == 0 && out.failure == "" {
					out.failure = "no operations completed"
				}
				out.setDigest(r, "")
				return out
			},
		}
	}
	return jobs
}

// kvRequests is the number of open-loop arrivals per kv-serve job.
const kvRequests = 1000

// kvPeriod is the mean inter-arrival gap in cycles. kv-serve's machine
// saturates at about 2.0 requests per 1000 cycles (measured at gaps of
// 220 and 480, where latency grows with run length); 600 offers 1.67,
// about 83% of that, so outside the flash crowd the backlog drains.
const kvPeriod = 600

// kvLoad is kv-serve's open-loop workload: Zipf 0.99 popularity whose
// hot set rotates a quarter of the keys every 60k cycles, one 3x flash
// crowd, and a 70:25:5 get/put/scan mix.
func kvLoad(requests uint64) *load.Spec {
	return &load.Spec{
		Keys: 512, Ops: requests, Period: kvPeriod, Theta: 0.99,
		ReadPct: 70, WritePct: 25, ScanPct: 5, ScanLen: 8,
		HotShift: 0.25, HotPeriod: 60000,
		BurstMult: 3, BurstStart: 100000, BurstLen: 30000,
	}
}

// kvWipes are the two storage-processor wipe windows, both inside the
// makespan (kvRequests x kvPeriod cycles).
func kvWipes() *fault.Spec {
	return &fault.Spec{Windows: []fault.Window{
		{Proc: 2, Start: 150000, Dur: 8000, Wipe: true},
		{Proc: 5, Start: 380000, Dur: 8000, Wipe: true},
	}, Ckpt: 50000}
}

// kvConfig is one kv-serve job: the KV/session store on gradient:1:4
// heterogeneous processors under the costmodel policy, WAL on with
// checkpoints, two wipe windows.
func kvConfig(seed uint64, requests uint64) kv.Config {
	return kv.Config{
		AccessCycles: 200,
		Policy:       "costmodel",
		Load:         kvLoad(requests),
		Hetero:       &cost.Hetero{Kind: "gradient", Min: 1, Max: 4},
		Faults:       kvWipes(),
		Durable:      true,
		Seed:         seed,
	}
}

func kvServeJobs(seed uint64, _ int) []job {
	jobs := make([]job, jobsPerPass)
	for i := range jobs {
		jobs[i] = kvJob(fmt.Sprintf("kv-serve/%d", i), kvConfig(jobSeed(seed, i), kvRequests))
	}
	return jobs
}

// kvJob generates cfg's arrivals once, at set-up, for the completion
// check and the drain time, so the timed job runs only the experiment.
func kvJob(label string, cfg kv.Config) job {
	events := load.NewGen(cfg.Load, cfg.Seed).Events()
	want := uint64(len(events))
	var lastAt float64
	if want > 0 {
		lastAt = float64(events[want-1].At)
	}
	return job{label: label, run: func() jobResult { return kvRun(cfg, want, lastAt) }}
}

// kvRun runs one kv-serve job that issues want requests, the last of
// them arriving at cycle lastAt.
func kvRun(cfg kv.Config, want uint64, lastAt float64) jobResult {
	r := kv.RunExperiment(cfg)
	out := jobResult{
		ops: r.Ops, throughput: r.Throughput, latency: r.MeanLatency,
		words: r.WordsPerOp, messages: -1, failure: r.InvariantErr,
	}
	if want > 0 {
		out.drain = float64(r.Makespan) - lastAt
	}
	switch {
	case out.failure != "":
	case r.Ops != want || r.Gets+r.Puts+r.Scans != r.Ops:
		out.failure = fmt.Sprintf("%d of %d requests completed (%d gets, %d puts, %d scans)",
			r.Ops, want, r.Gets, r.Puts, r.Scans)
	case r.Recovery == nil || r.Recovery.Wipes != uint64(len(cfg.Faults.Windows)):
		out.failure = "wipe windows not all recovered"
	}
	hist := ""
	if r.Latency != nil {
		hist = fmt.Sprintf("%d %v %s", r.Latency.Count(), r.Latency.Mean(), r.Latency.String())
	}
	out.setDigest(r, hist)
	return out
}

// paperSuiteIDs are the experiment ids paper-suite regenerates: every
// sweep of "all" once (fig3, table2 and table4 are other renderings of
// the fig2, table1 and table3 sweeps), then the extensions. ext-objmig,
// the rest of "all", is left out: object migration hangs on about one
// seed in eight (paperfigs -exp ext-objmig -seed 11 never finishes),
// and a benchmark run must end.
var paperSuiteIDs = []string{
	"fig2", "table1", "table3", "table5", "smallnode", "fig1", "ext-policy",
	"ext-fault", "ext-kv", "ext-recovery", "scale",
}

// paperSuiteJobs runs each experiment id at quick scale through the
// harness worker pool. The harness takes the benchmark seed as its own
// (so paperfigs -seed N reproduces a table), where seed 0 means 1.
func paperSuiteJobs(seed uint64, workers int) []job {
	opts := harness.Options{Quick: true, Seed: seed, Workers: workers}
	jobs := make([]job, len(paperSuiteIDs))
	for i, id := range paperSuiteIDs {
		jobs[i] = job{
			label: "paper-suite/" + id,
			run: func() jobResult {
				tables, err := harness.Run(id, opts)
				out := jobResult{ops: 1, messages: -1}
				switch {
				case err != nil:
					out.failure = err.Error()
				case len(tables) == 0:
					out.failure = "no tables rendered"
				}
				var b strings.Builder
				for _, t := range tables {
					b.WriteString(t.String())
				}
				out.setDigest(b.String(), "")
				return out
			},
		}
	}
	return jobs
}

// setDigest stores the digest of v, or records the encoding failure as
// the job's failure.
func (out *jobResult) setDigest(v any, extra string) {
	d, err := digest(v, extra)
	if err != nil && out.failure == "" {
		out.failure = "digest: " + err.Error()
	}
	out.digest = d
}
