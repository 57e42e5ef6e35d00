// Command benchdiff compares two benchmark reports written by
// paperfigs -bench-json and prints per-experiment wall-clock and
// allocation deltas.
//
// Usage:
//
//	benchdiff [-threshold PCT] old.json new.json
//
// Entries are matched by (experiment, workers). With -threshold set,
// benchdiff exits 1 if any matched experiment's wall clock regressed by
// more than PCT percent — suitable as a CI gate. Wall-clock deltas on
// sub-millisecond entries are noise, so the gate only considers entries
// whose baseline is at least 50 ms.
//
// Entries carrying durability counters (runs with the per-processor WAL
// on — today only ext-recovery) get a detail line comparing logging and
// replay work: WAL appends, checkpoint bytes, replay events, and
// simulated recovery cycles. Like the latency percentiles, these are
// simulation results: a changed count means the simulated behavior
// changed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type entry struct {
	Experiment string  `json:"experiment"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	FastHits   uint64  `json:"fast_hits"`
	SlowMisses uint64  `json:"slow_misses"`
	// Durability counters: zero unless the experiment ran with the
	// per-processor WAL on.
	WalAppends      uint64 `json:"wal_appends"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	ReplayEvents    uint64 `json:"replay_events"`
	RecoveryCycles  uint64 `json:"recovery_cycles"`
	// Simulated per-request latency percentiles in cycles (zero when the
	// experiment does not measure per-request latency). These are
	// simulation results, not host timings: a changed percentile means
	// the simulated behavior changed, which the identity suites treat as
	// a functional difference, not a performance one.
	LatencyP50 uint64 `json:"latency_p50"`
	LatencyP95 uint64 `json:"latency_p95"`
	LatencyP99 uint64 `json:"latency_p99"`
}

type report struct {
	Date        string  `json:"date"`
	GoVersion   string  `json:"go_version"`
	Quick       bool    `json:"quick"`
	Experiments []entry `json:"experiments"`
}

// gateFloorMS is the baseline wall clock below which the threshold gate
// ignores an entry: timing jitter on tiny runs dwarfs any real change.
const gateFloorMS = 50

func main() {
	threshold := flag.Float64("threshold", 0, "exit 1 if any wall clock regresses by more than this percent (0 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold PCT] old.json new.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if oldRep.Quick != newRep.Quick {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: comparing quick=%v against quick=%v\n",
			oldRep.Quick, newRep.Quick)
	}

	type key struct {
		exp     string
		workers int
	}
	oldBy := make(map[key]entry, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldBy[key{e.Experiment, e.Workers}] = e
	}

	fmt.Printf("%-12s %3s  %10s %10s %8s  %12s %8s\n",
		"experiment", "w", "old ms", "new ms", "wall", "new allocs", "allocs")
	regressed := false
	matched := 0
	for _, n := range newRep.Experiments {
		k := key{n.Experiment, n.Workers}
		o, ok := oldBy[k]
		if !ok {
			fmt.Printf("%-12s %3d  %10s %10.1f %8s  %12d %8s\n",
				n.Experiment, n.Workers, "-", n.WallMS, "new", n.Allocs, "new")
			printDurability(entry{}, n)
			printLatency(entry{}, n)
			continue
		}
		matched++
		delete(oldBy, k)
		wallPct := pctDelta(o.WallMS, n.WallMS)
		allocPct := pctDelta(float64(o.Allocs), float64(n.Allocs))
		fmt.Printf("%-12s %3d  %10.1f %10.1f %+7.1f%%  %12d %+7.1f%%\n",
			n.Experiment, n.Workers, o.WallMS, n.WallMS, wallPct, n.Allocs, allocPct)
		printDurability(o, n)
		printLatency(o, n)
		if *threshold > 0 && o.WallMS >= gateFloorMS && wallPct > *threshold {
			fmt.Fprintf(os.Stderr, "benchdiff: %s workers=%d wall clock regressed %.1f%% (limit %.1f%%)\n",
				n.Experiment, n.Workers, wallPct, *threshold)
			regressed = true
		}
	}
	for k := range oldBy {
		fmt.Printf("%-12s %3d  entry missing from new report\n", k.exp, k.workers)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no experiments in common")
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

// printDurability renders an entry's WAL/recovery counters on a detail
// line, flagging any counter that moved against the old report; entries
// that never switched the store on print nothing.
func printDurability(o, n entry) {
	if n.WalAppends == 0 && n.CheckpointBytes == 0 && n.ReplayEvents == 0 && n.RecoveryCycles == 0 {
		return
	}
	changed := ""
	if o.WalAppends != 0 && (o.WalAppends != n.WalAppends || o.CheckpointBytes != n.CheckpointBytes ||
		o.ReplayEvents != n.ReplayEvents || o.RecoveryCycles != n.RecoveryCycles) {
		changed = fmt.Sprintf("  (was appends=%d ckpt-bytes=%d replays=%d rec-cycles=%d — simulated behavior changed)",
			o.WalAppends, o.CheckpointBytes, o.ReplayEvents, o.RecoveryCycles)
	}
	fmt.Printf("%-12s      wal appends=%d ckpt-bytes=%d replays=%d rec-cycles=%d%s\n",
		"", n.WalAppends, n.CheckpointBytes, n.ReplayEvents, n.RecoveryCycles, changed)
}

// printLatency renders an entry's simulated latency percentiles on a
// detail line, flagging any percentile that moved against the old
// report; entries without latency data print nothing.
func printLatency(o, n entry) {
	if n.LatencyP50 == 0 && n.LatencyP95 == 0 && n.LatencyP99 == 0 {
		return
	}
	changed := ""
	if o.LatencyP50 != 0 && (o.LatencyP50 != n.LatencyP50 || o.LatencyP95 != n.LatencyP95 || o.LatencyP99 != n.LatencyP99) {
		changed = fmt.Sprintf("  (was p50=%d p95=%d p99=%d — simulated behavior changed)",
			o.LatencyP50, o.LatencyP95, o.LatencyP99)
	}
	fmt.Printf("%-12s      latency cycles p50=%d p95=%d p99=%d%s\n",
		"", n.LatencyP50, n.LatencyP95, n.LatencyP99, changed)
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Experiments) == 0 {
		return r, fmt.Errorf("%s: no experiments in report", path)
	}
	return r, nil
}

// pctDelta returns the percent change from old to new (positive =
// regression for costs like wall clock and allocations).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
