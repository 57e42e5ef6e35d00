// Command countnet runs one counting-network experiment (the paper's
// first application) and prints the measured point.
//
// Example:
//
//	countnet -threads 64 -think 0 -scheme cm+hw
//	countnet -threads 64 -policy costmodel -policy-stats stats.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/harness"
	"compmig/internal/policy"
	"compmig/internal/sim"
)

func main() {
	width := flag.Int("width", 8, "counting network width (power of two)")
	threads := flag.Int("threads", 8, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	schemeSpec := flag.String("scheme", "cm", "scheme: rpc|cm|sm|om with +hw (e.g. cm+hw)")
	policySpec := flag.String("policy", "", "online mechanism selection: static:<rpc|cm|sm|om>, costmodel, or bandit[:eps]")
	policyStats := flag.String("policy-stats", "", "write the policy engine's live statistics as JSON to this file (requires -policy)")
	faultsSpec := flag.String("faults", "", "fault plan, e.g. drop=0.01,delay=0:40,crash=p3@50000+20000,wipe=p2@60000+8000,ckpt=20000,seed=7 (empty = no faults)")
	durable := flag.Bool("durable", false, "force the per-processor WAL/checkpoint store on (wipe= windows switch it on automatically)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	flag.Parse()

	if *width <= 0 || *threads <= 0 {
		fmt.Fprintf(os.Stderr, "countnet: -width and -threads must be positive (got %d, %d)\n", *width, *threads)
		os.Exit(2)
	}
	if *width < 2 || *width&(*width-1) != 0 {
		fmt.Fprintf(os.Stderr, "countnet: -width must be a power of two >= 2 (got %d)\n", *width)
		os.Exit(2)
	}
	// One processor per balancer plus one per requester, each numbered
	// within the runtime's reply-linkage limit. The width bound comes
	// first so Balancers cannot overflow.
	if *width > core.MaxProcs || *threads > core.MaxProcs-countnet.Balancers(*width) {
		fmt.Fprintf(os.Stderr, "countnet: -width %d with -threads %d needs more than %d processors\n", *width, *threads, core.MaxProcs)
		os.Exit(2)
	}
	scheme, err := harness.ParseScheme(*schemeSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := harness.ParseFaults(*faultsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countnet:", err)
		os.Exit(2)
	}
	if *policyStats != "" && *policySpec == "" {
		fmt.Fprintln(os.Stderr, "countnet: -policy-stats requires -policy")
		os.Exit(2)
	}
	if *policySpec != "" {
		if err := policy.Validate(*policySpec); err != nil {
			fmt.Fprintln(os.Stderr, "countnet:", err)
			os.Exit(2)
		}
	}
	r := countnet.RunExperiment(countnet.Config{
		Width: *width, Threads: *threads, Think: *think, Scheme: scheme,
		Seed: *seed, Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: *policySpec, Faults: faults,
		Durable: *durable,
	})
	if *policyStats != "" {
		data, err := json.MarshalIndent(r.PolicyStats, "", "  ")
		if err == nil {
			err = os.WriteFile(*policyStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "countnet: writing policy stats:", err)
			os.Exit(1)
		}
	}
	if r.Trace != nil {
		if err := r.Trace.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	fmt.Printf("scheme            %s\n", r.Scheme)
	if r.Policy != "" {
		fmt.Printf("policy            %s (decisions rpc:%d cm:%d sm:%d om:%d)\n",
			r.Policy, r.Decisions[0], r.Decisions[1], r.Decisions[2], r.Decisions[3])
	}
	fmt.Printf("threads           %d\n", r.Threads)
	fmt.Printf("think time        %d cycles\n", r.Think)
	fmt.Printf("throughput        %.3f requests/1000 cycles\n", r.Throughput)
	fmt.Printf("bandwidth         %.3f words/10 cycles\n", r.Bandwidth)
	fmt.Printf("requests          %d\n", r.Ops)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95Latency)
	fmt.Printf("entry-stage util  %.1f%%\n", r.EntryUtilization*100)
	fmt.Printf("messages          %d\n", r.Messages)
	fmt.Printf("words/request     %.1f\n", r.WordsPerOp)
	if r.HitRate > 0 {
		fmt.Printf("cache hit rate    %.1f%%\n", r.HitRate*100)
	}
	if r.Fault != nil {
		fmt.Printf("faults injected   drop:%d dup:%d crash:%d pause:%d\n",
			r.Fault.Dropped, r.Fault.Duplicated, r.Fault.CrashDropped, r.Fault.PauseDelayed)
		fmt.Printf("fault recovery    retransmits:%d timeouts:%d dup-suppressed:%d giveups:%d\n",
			r.Fault.Retransmits, r.Fault.Timeouts, r.Fault.DupSuppressed, r.Fault.GiveUps)
	}
	if r.Recovery != nil {
		fmt.Printf("durability        appends:%d fsyncs:%d checkpoints:%d ckpt-words:%d\n",
			r.Recovery.Appends, r.Recovery.Fsyncs, r.Recovery.Checkpoints, r.Recovery.CheckpointWords)
		fmt.Printf("crash recovery    wipes:%d restores:%d replays:%d rereg:%d cycles:%d\n",
			r.Recovery.Wipes, r.Recovery.Restores, r.Recovery.Replays, r.Recovery.Reregistered, r.Recovery.RecoveryCycles)
	}
	if r.Fault != nil || r.Recovery != nil {
		if r.InvariantErr != "" {
			fmt.Fprintln(os.Stderr, "countnet: INVARIANT VIOLATED:", r.InvariantErr)
			os.Exit(1)
		}
		fmt.Printf("invariants        ok\n")
	}
}
