package countnet

import (
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/policy"
	"compmig/internal/sim"
	"compmig/internal/store"
)

// Config describes one counting-network run (one point of Figure 2/3).
type Config struct {
	Width   int    // 8 in the paper
	Threads int    // requesting threads, each on its own processor
	Think   uint64 // cycles between requests: 0 or 10000 in the paper
	Scheme  core.Scheme
	Seed    uint64

	Warmup  sim.Time // cycles before the measurement window opens
	Measure sim.Time // length of the measurement window

	// Ablation knobs (nil/false reproduce the paper's configuration).
	Model     *cost.Model // override the scheme-derived cost model
	Mesh      bool        // 2D mesh with per-hop latency instead of a crossbar
	MemParams *mem.Params // override the shared-memory substrate parameters
	// TraceCap, when positive, records the last TraceCap simulation
	// events into Result.Trace.
	TraceCap int
	// ThreadsPerProc co-locates several requester threads per processor
	// (default 1, the paper's layout). More threads per processor model
	// the Alewife multithreading the paper's machine omitted ("similar to
	// the Alewife machine, but without its multithreading capability"):
	// while one thread stalls on a miss or a reply, another runs.
	ThreadsPerProc int
	// Policy, when non-empty, selects the remote-access mechanism per
	// operation through an internal/policy engine instead of the static
	// scheme: "static:<mech>", "costmodel", or "bandit[:eps]". The
	// shared-memory substrate is always built so adaptive policies can
	// route through it. Scheme still supplies the cost model.
	Policy string
	// Faults, when it enables any fault, attaches a deterministic fault
	// injector to the network and runs the post-run invariant checker.
	Faults *fault.Spec
	// Durable forces the WAL/checkpoint store on; it also switches on
	// automatically whenever Faults schedules a wipe window.
	Durable bool
	// DropNthAppend / DropNthReplay are negative-test levers: lose the
	// nth WAL append or skip the nth replayed record, so the post-run
	// checker's teeth can be verified.
	DropNthAppend uint64
	DropNthReplay uint64
	// MaxEvents, when nonzero, bounds the events the engine processes
	// (sim.Engine.MaxEvents): a run that would exceed it
	// panics ("did not quiesce") instead of running on.
	MaxEvents uint64
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 20000
	}
	if c.Measure == 0 {
		c.Measure = 200000
	}
	if c.ThreadsPerProc == 0 {
		c.ThreadsPerProc = 1
	}
	return c
}

// Result is one measured point.
type Result struct {
	Scheme      string
	Threads     int
	Think       uint64
	Throughput  float64 // requests per 1000 cycles (Figure 2)
	Bandwidth   float64 // words sent per 10 cycles (Figure 3)
	Ops         uint64  // requests completed inside the window
	MeanLatency float64 // cycles per request over the whole run
	Messages    uint64  // total runtime+coherence messages
	WordsPerOp  float64 // words transmitted per high-level operation (§4.4)
	HitRate     float64 // shared-memory cache hit rate
	// P95Latency is the 95th-percentile request latency (upper bound).
	P95Latency uint64
	// EntryUtilization is the mean busy fraction of the first-stage
	// balancer processors — where requests pile up under contention.
	EntryUtilization float64
	// Trace holds the tail of the execution trace when Config.TraceCap
	// was set.
	Trace *sim.Tracer
	// ObjectMoves and Forwards report Emerald-style mobility activity
	// (nonzero only under the ObjMigrate scheme).
	ObjectMoves uint64
	Forwards    uint64
	// Policy names the policy a policy run used ("" for static schemes);
	// Decisions counts its per-mechanism choices indexed by
	// core.Mechanism; PolicyStats is the engine's final statistics dump.
	Policy      string
	Decisions   [4]uint64
	PolicyStats *policy.Stats
	// Fault holds the injected-fault and recovery counters of a faulty
	// run (nil when no fault plan was active); InvariantErr is the
	// post-run invariant checker's verdict ("" = all invariants held).
	Fault *fault.Counters
	// Recovery holds the durability-store counters of a durable run
	// (nil when the store was off).
	Recovery     *store.Counters
	InvariantErr string
}

// Machine returns the machine a run of c needs: the balancer
// processors first, then one processor per group of ThreadsPerProc
// requesters.
func (c Config) Machine() machine.Config {
	c = c.WithDefaults()
	return machine.Config{
		Procs: Balancers(c.Width) + (c.Threads+c.ThreadsPerProc-1)/c.ThreadsPerProc,
		Seed:  c.Seed, Scheme: c.Scheme, Model: c.Model, Mesh: c.Mesh, MemParams: c.MemParams,
		Policy: c.Policy, Faults: c.Faults, Durable: c.Durable,
		DropNthAppend: c.DropNthAppend, DropNthReplay: c.DropNthReplay,
		TraceCap: c.TraceCap, MaxEvents: c.MaxEvents,
	}
}

// RunExperiment builds a fresh machine, runs the workload, and reports
// windowed throughput and bandwidth.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	m := machine.MustNew(cfg.Machine())
	defer m.Release()
	eng, col, rt := m.Eng, m.Col, m.RT
	n := Build(rt, m.Mem, cfg.Scheme, cfg.Width)
	m.Attach(n)

	numBal := Balancers(cfg.Width)
	stop := cfg.Warmup + cfg.Measure
	rng := eng.Rand().Fork()
	opsStarted := uint64(0)
	for i := 0; i < cfg.Threads; i++ {
		i := i
		proc := numBal + i/cfg.ThreadsPerProc
		wire := i % cfg.Width
		delay := sim.Time(rng.Intn(200))
		eng.Spawn("requester", delay, func(th *sim.Thread) {
			task := rt.NewTask(th, proc)
			for th.Now() < stop {
				start := th.Now()
				opsStarted++
				n.Traverse(task, wire)
				col.CountOp(uint64(th.Now() - start))
				if cfg.Think > 0 {
					task.Think(cfg.Think)
				}
			}
		})
	}

	eng.Schedule(cfg.Warmup, func() { col.MarkWindow(uint64(cfg.Warmup)) })
	res := Result{Scheme: cfg.Scheme.Name(), Threads: cfg.Threads, Think: cfg.Think}
	eng.Schedule(stop, func() {
		res.Throughput = col.Throughput(uint64(stop))
		res.Bandwidth = col.Bandwidth(uint64(stop))
	})
	if err := eng.Run(); err != nil {
		panic("countnet: experiment did not quiesce: " + err.Error())
	}

	res.Ops = col.Ops
	res.MeanLatency = col.MeanOpLatency()
	res.Messages = col.TotalMessages()
	if col.Ops > 0 {
		res.WordsPerOp = float64(col.WordsSent) / float64(col.Ops)
	}
	res.HitRate = col.HitRate()
	res.P95Latency = col.Latency.Quantile(0.95)
	entry := len(Bitonic(cfg.Width).Stages[0])
	var u float64
	for p := 0; p < entry; p++ {
		u += m.Mach.Proc(p).Utilization()
	}
	res.EntryUtilization = u / float64(entry)
	res.Trace = m.Trace
	res.ObjectMoves = rt.Objects.Moves
	res.Forwards = col.Forwards
	rep := m.Report()
	res.Policy, res.Decisions, res.PolicyStats = rep.Policy, rep.Decisions, rep.PolicyStats
	res.Fault, res.Recovery = rep.Fault, rep.Recovery
	if m.Inj != nil || m.WAL != nil {
		if err := n.CheckInvariants(opsStarted); err != nil {
			res.InvariantErr = err.Error()
		}
	}
	return res
}
