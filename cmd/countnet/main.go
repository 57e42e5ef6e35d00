// Command countnet runs one counting-network experiment (the paper's
// first application) and prints the measured point.
//
// Example:
//
//	countnet -threads 64 -think 0 -scheme cm+hw
//	countnet -threads 64 -policy costmodel -policy-stats stats.json
package main

import (
	"flag"
	"fmt"
	"os"

	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

func main() {
	fl := machine.NewFlags("countnet")
	width := flag.Int("width", 8, "counting network width (power of two)")
	threads := flag.Int("threads", 8, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	fl.Parse()

	if *width <= 0 || *threads <= 0 {
		fl.Failf("-width and -threads must be positive (got %d, %d)", *width, *threads)
	}
	if *width < 2 || *width&(*width-1) != 0 {
		fl.Failf("-width must be a power of two >= 2 (got %d)", *width)
	}
	// One processor per balancer plus one per requester, each numbered
	// within the runtime's reply-linkage limit. The width bound comes
	// first so Balancers cannot overflow.
	if *width > core.MaxProcs || *threads > core.MaxProcs-countnet.Balancers(*width) {
		fl.Failf("-width %d with -threads %d needs more than %d processors", *width, *threads, core.MaxProcs)
	}
	cfg := countnet.Config{
		Width: *width, Threads: *threads, Think: *think, Scheme: fl.Scheme,
		Seed: fl.Seed, Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: fl.Policy, Faults: fl.Faults,
		Durable: fl.Durable,
	}
	fl.Check(cfg.Machine())
	r := countnet.RunExperiment(cfg)
	if r.Trace != nil {
		if err := r.Trace.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	rep := machine.Report{Policy: r.Policy, Decisions: r.Decisions, PolicyStats: r.PolicyStats, Fault: r.Fault, Recovery: r.Recovery}
	fl.Head(r.Scheme, rep)
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
	fl.Tail(r.HitRate, rep, r.Fault != nil || r.Recovery != nil, r.InvariantErr)
}
