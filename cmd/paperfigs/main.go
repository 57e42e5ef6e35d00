// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section on the simulated machine.
//
// Usage:
//
//	paperfigs [-exp all|fig1|fig2|fig3|table1|table2|table3|table4|table5|smallnode|ext-objmig|ext-policy|ext-fault|ext-kv|ext-recovery|scale]
//	          [-quick] [-seed N] [-format text|md] [-workers N] [-bench-json out.json]
//	          [-faults SPEC] [-profile] [-cpuprofile out.pb] [-memprofile out.pb] [-fastpath=false]
//
// Independent simulation jobs run on a pool of -workers host goroutines
// (default: one per CPU); the rendered tables are byte-identical for any
// worker count. -bench-json runs each selected experiment at workers=1
// and at -workers, verifies the outputs match, and writes wall-clock +
// allocation + fast-path statistics to the given file.
//
// -profile prints per-subsystem host-time counters (shared-memory fast
// and slow paths, network sends, event-heap pushes) to stderr after the
// run; -cpuprofile/-memprofile write standard pprof profiles. -fastpath
// =false forces every memory access through the event-driven protocol —
// the rendered tables must not change, only the host-side speed.
//
// -faults applies a deterministic fault plan (internal/fault grammar,
// e.g. drop=0.01,dup=0.005,delay=0:40,seed=7) to every config-driven
// experiment; the ext-fault experiment runs its own rate sweep and
// ignores the flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"compmig/internal/fault"
	"compmig/internal/harness"
	"compmig/internal/mem"
	"compmig/internal/profile"
	"compmig/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1, fig2, fig3, table1..table5, smallnode, ext-objmig, ext-policy, ext-fault, ext-kv, ext-recovery, all")
	quick := flag.Bool("quick", false, "short measurement windows (smoke run)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	format := flag.String("format", "text", "output format: text or md")
	workers := flag.Int("workers", 0, "worker goroutines for independent simulation jobs (0 = one per CPU, 1 = serial)")
	benchJSON := flag.String("bench-json", "", "write wall-clock + allocation stats per experiment to this JSON file")
	prof := flag.Bool("profile", false, "print per-subsystem host-time counters to stderr after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file")
	fastPath := flag.Bool("fastpath", true, "enable the shared-memory inline fast paths (disable for A/B checks)")
	faultsSpec := flag.String("faults", "", "fault plan applied to config-driven experiments, e.g. drop=0.01,dup=0.005,delay=0:40 (empty = no faults)")
	flag.Parse()

	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "paperfigs: -format wants text or md, got %q\n", *format)
		os.Exit(2)
	}
	faults, err := fault.ParseSpec(*faultsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(2)
	}

	mem.SetFastPath(*fastPath)
	if *prof {
		profile.Enable(true)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
		if *prof {
			fmt.Fprint(os.Stderr, profile.Report(nil))
		}
	}()

	o := harness.Options{Quick: *quick, Seed: *seed, Workers: *workers, Faults: faults}

	if *benchJSON != "" {
		if err := runBench(*benchJSON, *exp, o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	tables, err := harness.Run(*exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		switch *format {
		case "md":
			fmt.Print(t.Markdown())
		default:
			fmt.Print(t.String())
		}
	}
}

// benchEntry is one measured (experiment, workers) cell of the report.
// FastHits counts line accesses completed by the shared-memory inline
// fast paths (cache hits plus home-local misses); SlowMisses counts the
// accesses that went through the event-driven protocol.
type benchEntry struct {
	Experiment string  `json:"experiment"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	FastHits   uint64  `json:"fast_hits"`
	SlowMisses uint64  `json:"slow_misses"`
	// Durability-store counters (zero unless the experiment ran with the
	// WAL on — today only ext-recovery does): WAL records appended, bytes
	// written by checkpoint folds, records replayed during crash
	// recovery, and simulated cycles spent recovering.
	WalAppends      uint64 `json:"wal_appends"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	ReplayEvents    uint64 `json:"replay_events"`
	RecoveryCycles  uint64 `json:"recovery_cycles"`
	// Simulated per-request latency percentiles in cycles, merged across
	// every table the experiment rendered. Zero when the experiment does
	// not measure per-request latency (only ext-kv does today).
	LatencyP50 uint64 `json:"latency_p50,omitempty"`
	LatencyP95 uint64 `json:"latency_p95,omitempty"`
	LatencyP99 uint64 `json:"latency_p99,omitempty"`
	Tables     int    `json:"tables"`
}

type benchReport struct {
	Date        string       `json:"date"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	Quick       bool         `json:"quick"`
	Seed        uint64       `json:"seed"`
	Experiments []benchEntry `json:"experiments"`
}

// runBench measures each selected experiment at workers=1 and at the
// requested worker count, verifies the rendered tables are identical,
// and writes the report to path.
func runBench(path, exp string, o harness.Options) error {
	ids := []string{exp}
	if exp == "all" {
		// One id per independent sweep (fig3 shares fig2's, table2/4
		// share table1/3's), plus the full suite.
		ids = []string{"fig1", "fig2", "table1", "table3", "table5", "smallnode", "ext-objmig", "ext-policy", "ext-fault", "all"}
	}
	parallel := harness.Options{Quick: o.Quick, Seed: o.Seed, Workers: o.Workers, Faults: o.Faults}
	serial := parallel
	serial.Workers = 1

	report := benchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Quick:      o.Quick,
		Seed:       serialSeed(o.Seed),
	}
	for _, id := range ids {
		se, sOut, err := measure(id, serial)
		if err != nil {
			return err
		}
		report.Experiments = append(report.Experiments, se)
		pe, pOut, err := measure(id, parallel)
		if err != nil {
			return err
		}
		if pe.Workers != se.Workers {
			report.Experiments = append(report.Experiments, pe)
		}
		if sOut != pOut {
			return fmt.Errorf("paperfigs: experiment %q rendered differently at workers=%d vs workers=%d", id, se.Workers, pe.Workers)
		}
		fmt.Fprintf(os.Stderr, "%-12s workers=%-2d %8.1f ms   workers=%-2d %8.1f ms\n",
			id, se.Workers, se.WallMS, pe.Workers, pe.WallMS)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func serialSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// measure runs one experiment and samples wall clock, allocation, and
// fast-path counter deltas around it. The mem systems flush their
// fast/slow access counts into the profile package on Release, which
// every experiment defers, so snapshotting the profile counters brackets
// the run exactly.
func measure(id string, o harness.Options) (benchEntry, string, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pBefore := profile.Snapshot()
	start := time.Now()
	tables, err := harness.Run(id, o)
	wall := time.Since(start)
	pAfter := profile.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchEntry{}, "", err
	}
	var fastHits, slowMisses uint64
	var walAppends, ckptBytes, replays, recCycles uint64
	for i, s := range pAfter {
		d := s.Count - pBefore[i].Count
		switch s.Name {
		case "mem.fast_hits", "mem.fast_local":
			fastHits += d
		case "mem.slow":
			slowMisses += d
		case "store.wal_appends":
			walAppends += d
		case "store.checkpoint_bytes":
			ckptBytes += d
		case "store.replay_events":
			replays += d
		case "store.recovery_cycles":
			recCycles += d
		}
	}
	var b strings.Builder
	lat := &stats.Histogram{}
	for _, t := range tables {
		b.WriteString(t.String())
		if t.Latency != nil {
			lat.AddFrom(t.Latency)
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return benchEntry{
		Experiment:      id,
		Workers:         workers,
		WallMS:          float64(wall.Microseconds()) / 1000,
		Allocs:          after.Mallocs - before.Mallocs,
		AllocBytes:      after.TotalAlloc - before.TotalAlloc,
		FastHits:        fastHits,
		SlowMisses:      slowMisses,
		WalAppends:      walAppends,
		CheckpointBytes: ckptBytes,
		ReplayEvents:    replays,
		RecoveryCycles:  recCycles,
		LatencyP50:      lat.Quantile(0.50),
		LatencyP95:      lat.Quantile(0.95),
		LatencyP99:      lat.Quantile(0.99),
		Tables:          len(tables),
	}, b.String(), nil
}
