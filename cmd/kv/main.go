// Command kv runs one open-loop distributed KV/session-store experiment
// and prints the measured row: throughput, tail latency, the mechanism
// decision mix, and the invariant verdict.
//
// The workload is open-loop (-workload, internal/load grammar): arrivals
// do not wait for completions, so a slow configuration accumulates
// queueing delay instead of throttling the offered load. The machine may
// be heterogeneous (-hetero, internal/cost grammar): the partitions live
// on the low-numbered processors, so bimodal slowness lands on the
// storage tier.
//
// Examples:
//
//	kv -workload keys=512,ops=4000,period=220,zipf=0.99,mix=70:25:5
//	kv -hetero gradient:1:4 -policy costmodel
//	kv -scheme sm -hetero bimodal:4:0.5 -faults drop=0.01,seed=7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compmig/internal/apps/kv"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/harness"
	"compmig/internal/load"
	"compmig/internal/policy"
)

func main() {
	workloadSpec := flag.String("workload", "", "open-loop workload, e.g. keys=512,ops=4000,period=220,zipf=0.99,mix=70:25:5,hot=0.25:60000,burst=3:40000:30000 (empty = defaults)")
	heteroSpec := flag.String("hetero", "", "processor speed profile: uniform, bimodal:FACTOR:FRAC, or gradient:MIN:MAX (empty = uniform)")
	schemeSpec := flag.String("scheme", "cm", "scheme: rpc|cm|sm (object migration is not supported by the store)")
	policySpec := flag.String("policy", "", "online mechanism selection: static:<rpc|cm|sm>, costmodel, or bandit[:eps]")
	policyStats := flag.String("policy-stats", "", "write the policy engine's live statistics as JSON to this file (requires -policy)")
	store := flag.Int("store", 8, "storage processors (= partitions)")
	front := flag.Int("front", 4, "frontend processors receiving arrivals")
	touches := flag.Int("touches", 3, "record accesses per point operation")
	access := flag.Uint64("access", 40, "user-code cycles per record access")
	frontWork := flag.Uint64("frontwork", 50, "frontend parse/dispatch cycles per request")
	faultsSpec := flag.String("faults", "", "fault plan, e.g. drop=0.01,delay=0:40,wipe=p2@60000+8000,ckpt=20000,seed=7 (empty = no faults)")
	durable := flag.Bool("durable", false, "force the per-processor WAL/checkpoint store on (wipe= windows switch it on automatically)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	if *store <= 0 || *front <= 0 || *touches <= 0 || *access == 0 {
		fmt.Fprintf(os.Stderr, "kv: -store, -front, -touches, and -access must be positive (got %d, %d, %d, %d)\n",
			*store, *front, *touches, *access)
		os.Exit(2)
	}
	if *store > core.MaxProcs-*front {
		fmt.Fprintf(os.Stderr, "kv: -store %d with -front %d needs more than %d processors\n", *store, *front, core.MaxProcs)
		os.Exit(2)
	}
	spec, err := load.ParseSpec(*workloadSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kv:", err)
		os.Exit(2)
	}
	hetero, err := cost.ParseHetero(*heteroSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kv:", err)
		os.Exit(2)
	}
	scheme, err := harness.ParseScheme(*schemeSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if scheme.Mechanism == core.ObjMigrate {
		fmt.Fprintln(os.Stderr, "kv: the store does not support object migration (-scheme om); use rpc, cm, or sm")
		os.Exit(2)
	}
	faults, err := harness.ParseFaults(*faultsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kv:", err)
		os.Exit(2)
	}
	if *policyStats != "" && *policySpec == "" {
		fmt.Fprintln(os.Stderr, "kv: -policy-stats requires -policy")
		os.Exit(2)
	}
	if *policySpec != "" {
		if err := policy.Validate(*policySpec); err != nil {
			fmt.Fprintln(os.Stderr, "kv:", err)
			os.Exit(2)
		}
	}

	r := kv.RunExperiment(kv.Config{
		StoreProcs: *store, FrontProcs: *front, Touches: *touches,
		AccessCycles: *access, FrontWork: *frontWork,
		Scheme: scheme, Policy: *policySpec,
		Load: spec, Hetero: hetero, Faults: faults,
		Durable: *durable, Seed: *seed,
	})
	if *policyStats != "" {
		data, err := json.MarshalIndent(r.PolicyStats, "", "  ")
		if err == nil {
			err = os.WriteFile(*policyStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "kv: writing policy stats:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("scheme            %s\n", r.Scheme)
	if r.Policy != "" {
		fmt.Printf("policy            %s (decisions rpc:%d cm:%d sm:%d om:%d)\n",
			r.Policy, r.Decisions[0], r.Decisions[1], r.Decisions[2], r.Decisions[3])
	}
	if spec.String() != "" {
		fmt.Printf("workload          %s\n", spec)
	}
	if hetero.Enabled() {
		fmt.Printf("hetero            %s\n", hetero)
	}
	fmt.Printf("operations        %d (get:%d put:%d scan:%d)\n", r.Ops, r.Gets, r.Puts, r.Scans)
	fmt.Printf("makespan          %d cycles\n", r.Makespan)
	fmt.Printf("throughput        %.3f requests/1000 cycles\n", r.Throughput)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p50 latency       <= %d cycles\n", r.P50)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95)
	fmt.Printf("p99 latency       <= %d cycles\n", r.P99)
	fmt.Printf("words/op          %.1f\n", r.WordsPerOp)
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
	if r.InvariantErr != "" {
		fmt.Fprintln(os.Stderr, "kv: INVARIANT VIOLATED:", r.InvariantErr)
		os.Exit(1)
	}
	fmt.Printf("invariants        ok\n")
}
