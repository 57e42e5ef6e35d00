// Command btree runs one distributed B-tree experiment (the paper's
// second application) and prints the measured row.
//
// Example:
//
//	btree -threads 16 -think 0 -scheme cm+repl+hw -fanout 100
//	btree -threads 16 -policy costmodel -policy-stats stats.json
package main

import (
	"flag"
	"fmt"
	"os"

	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

func main() {
	fl := machine.NewFlags("btree")
	fanout := flag.Int("fanout", 100, "maximum keys per node")
	keys := flag.Int("keys", 10000, "initial keys")
	procs := flag.Int("nodeprocs", 48, "processors holding tree nodes")
	threads := flag.Int("threads", 16, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	lookup := flag.Float64("lookups", 0.5, "fraction of operations that are lookups")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	fl.Parse()

	if *fanout <= 0 || *keys <= 0 || *procs <= 0 || *threads <= 0 {
		fl.Failf("-fanout, -keys, -nodeprocs, and -threads must be positive (got %d, %d, %d, %d)",
			*fanout, *keys, *procs, *threads)
	}
	if *fanout < 2 {
		fl.Failf("-fanout must be at least 2 (got %d)", *fanout)
	}
	if *procs > core.MaxProcs-*threads {
		fl.Failf("-nodeprocs %d with -threads %d needs more than %d processors", *procs, *threads, core.MaxProcs)
	}
	if *lookup < 0 || *lookup > 1 {
		fl.Failf("-lookups wants a fraction in [0,1], got %g", *lookup)
	}
	p := btree.DefaultParams()
	p.Fanout = *fanout
	p.NodeProcs = *procs
	cfg := btree.Config{
		Params: p, InitialKeys: *keys, Threads: *threads, Think: *think,
		LookupFrac: *lookup, Scheme: fl.Scheme, Seed: fl.Seed,
		Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: fl.Policy, Faults: fl.Faults,
		Durable: fl.Durable,
	}
	fl.Check(cfg.Machine())
	r := btree.RunExperiment(cfg)
	if r.Trace != nil {
		if err := r.Trace.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	rep := machine.Report{Policy: r.Policy, Decisions: r.Decisions, PolicyStats: r.PolicyStats, Fault: r.Fault, Recovery: r.Recovery}
	fl.Head(r.Scheme, rep)
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
	fl.Tail(r.HitRate, rep, r.Fault != nil || r.Recovery != nil, r.InvariantErr)
}
