// Command btree runs one distributed B-tree experiment (the paper's
// second application) and prints the measured row.
//
// Example:
//
//	btree -threads 16 -think 0 -scheme cm+repl+hw -fanout 100
//	btree -threads 16 -policy costmodel -policy-stats stats.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/harness"
	"compmig/internal/policy"
	"compmig/internal/sim"
)

func main() {
	fanout := flag.Int("fanout", 100, "maximum keys per node")
	keys := flag.Int("keys", 10000, "initial keys")
	procs := flag.Int("nodeprocs", 48, "processors holding tree nodes")
	threads := flag.Int("threads", 16, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	lookup := flag.Float64("lookups", 0.5, "fraction of operations that are lookups")
	schemeSpec := flag.String("scheme", "cm", "scheme: rpc|cm|sm|om with +hw/+repl (e.g. cm+repl+hw)")
	policySpec := flag.String("policy", "", "online mechanism selection: static:<rpc|cm|sm|om>, costmodel, or bandit[:eps]")
	policyStats := flag.String("policy-stats", "", "write the policy engine's live statistics as JSON to this file (requires -policy)")
	faultsSpec := flag.String("faults", "", "fault plan, e.g. drop=0.01,delay=0:40,crash=p3@50000+20000,wipe=p2@60000+8000,ckpt=20000,seed=7 (empty = no faults)")
	durable := flag.Bool("durable", false, "force the per-processor WAL/checkpoint store on (wipe= windows switch it on automatically)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	flag.Parse()

	if *fanout <= 0 || *keys <= 0 || *procs <= 0 || *threads <= 0 {
		fmt.Fprintf(os.Stderr, "btree: -fanout, -keys, -nodeprocs, and -threads must be positive (got %d, %d, %d, %d)\n",
			*fanout, *keys, *procs, *threads)
		os.Exit(2)
	}
	if *fanout < 2 {
		fmt.Fprintf(os.Stderr, "btree: -fanout must be at least 2 (got %d)\n", *fanout)
		os.Exit(2)
	}
	if *procs > core.MaxProcs-*threads {
		fmt.Fprintf(os.Stderr, "btree: -nodeprocs %d with -threads %d needs more than %d processors\n", *procs, *threads, core.MaxProcs)
		os.Exit(2)
	}
	if *lookup < 0 || *lookup > 1 {
		fmt.Fprintf(os.Stderr, "btree: -lookups wants a fraction in [0,1], got %g\n", *lookup)
		os.Exit(2)
	}
	scheme, err := harness.ParseScheme(*schemeSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := harness.ParseFaults(*faultsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btree:", err)
		os.Exit(2)
	}
	if *policyStats != "" && *policySpec == "" {
		fmt.Fprintln(os.Stderr, "btree: -policy-stats requires -policy")
		os.Exit(2)
	}
	if *policySpec != "" {
		if err := policy.Validate(*policySpec); err != nil {
			fmt.Fprintln(os.Stderr, "btree:", err)
			os.Exit(2)
		}
	}
	p := btree.DefaultParams()
	p.Fanout = *fanout
	p.NodeProcs = *procs
	r := btree.RunExperiment(btree.Config{
		Params: p, InitialKeys: *keys, Threads: *threads, Think: *think,
		LookupFrac: *lookup, Scheme: scheme, Seed: *seed,
		Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: *policySpec, Faults: faults,
		Durable: *durable,
	})
	if *policyStats != "" {
		data, err := json.MarshalIndent(r.PolicyStats, "", "  ")
		if err == nil {
			err = os.WriteFile(*policyStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "btree: writing policy stats:", err)
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
	fmt.Printf("think time        %d cycles\n", r.Think)
	fmt.Printf("throughput        %.3f ops/1000 cycles\n", r.Throughput)
	fmt.Printf("bandwidth         %.3f words/10 cycles\n", r.Bandwidth)
	fmt.Printf("operations        %d\n", r.Ops)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95Latency)
	fmt.Printf("root proc util    %.1f%%\n", r.RootUtilization*100)
	fmt.Printf("words/op          %.1f\n", r.WordsPerOp)
	fmt.Printf("tree height       %d\n", r.Height)
	fmt.Printf("root children     %d\n", r.RootChildren)
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
			fmt.Fprintln(os.Stderr, "btree: INVARIANT VIOLATED:", r.InvariantErr)
			os.Exit(1)
		}
		fmt.Printf("invariants        ok\n")
	}
}
