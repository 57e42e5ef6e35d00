package countnet

import (
	"fmt"
	"io"
	"os"

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/policy"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
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
	// Shards, when >= 1, runs the simulation on that many sharded event
	// engines synchronized by conservative lookahead (see sim.Cluster).
	// Output is byte-identical across shard counts, but not to the
	// serial (Shards == 0) engine, whose event-ordering keys differ.
	// Configurations the sharded engine does not support — policies,
	// faults, tracing, shared-memory or object-migration schemes,
	// replication — silently fall back to the serial engine.
	Shards int
	// MaxEvents, when nonzero, bounds the events the serial engine
	// processes (sim.Engine.MaxEvents): a run that would exceed it
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

// FallbackNotice receives the one-line notice RunExperiment emits when a
// run requested the sharded engine but the configuration requires the
// serial one. It defaults to stderr; tests may swap it out. Writes
// happen during host-side setup only, never on a simulated path.
var FallbackNotice io.Writer = os.Stderr

// RunExperiment builds a fresh machine, runs the workload, and reports
// windowed throughput and bandwidth.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	if cfg.Shards >= 1 {
		if cfg.parallelEligible() {
			return runClustered(cfg)
		}
		// Fall back loudly: a silently ignored -shards makes serial
		// wall-clock look like a sharding regression.
		profile.ShardFallbacks.Add(1)
		fmt.Fprintf(FallbackNotice, "countnet: shards=%d ignored, running on the serial engine: %s\n",
			cfg.Shards, cfg.ineligibleReason())
	}
	eng := sim.NewEngine(cfg.Seed)
	eng.MaxEvents = cfg.MaxEvents
	var tracer *sim.Tracer
	if cfg.TraceCap > 0 {
		tracer = eng.EnableTrace(cfg.TraceCap)
	}
	model := cfg.Scheme.Model()
	if cfg.Model != nil {
		model = *cfg.Model
	}

	// Balancer processors first, then one processor per requester.
	numBal := 0
	for _, st := range Bitonic(cfg.Width).Stages {
		numBal += len(st)
	}
	reqProcs := (cfg.Threads + cfg.ThreadsPerProc - 1) / cfg.ThreadsPerProc
	mach := sim.NewMachine(eng, numBal+reqProcs)
	col := stats.NewCollector()
	topo := topology(cfg.Mesh, mach.N())
	perHop := model.NetTransitPerHop
	if cfg.Mesh && perHop == 0 {
		perHop = 2
	}
	net := network.New(eng, topo, col, model.NetTransitBase, perHop)
	var inj *fault.Injector
	if cfg.Faults.Enabled() {
		inj = fault.NewInjector(cfg.Faults)
		net.AttachFaults(inj)
		installWindows(inj, mach)
	}
	rt := core.New(eng, mach, net, col, model)

	mp := mem.DefaultParams()
	if cfg.MemParams != nil {
		mp = *cfg.MemParams
	}
	var shm *mem.System
	if cfg.Scheme.Mechanism == core.SharedMem || cfg.Policy != "" {
		// Policy runs always get a substrate: an adaptive decision may
		// route any operation through shared memory. Building it is
		// host-side only, so static:<mech> runs stay byte-identical to
		// their scheme-based counterparts.
		shm = mem.New(eng, mach, net, col, mp)
	}
	defer shm.Release()
	n := Build(rt, shm, cfg.Scheme, cfg.Width)

	// Durability wiring comes after Build so the built network seeds the
	// checkpoints for free instead of charging simulated append time for
	// initial state.
	var wal *store.Store
	if cfg.Durable || cfg.Faults.HasWipe() {
		wal = store.New(mach, col, cost.DefaultDurability(), cfg.Faults.CkptInterval(), rt.Objects.Home)
		n.EnableDurability(wal)
		rt.Objects.SetJournal(wal)
		if cfg.DropNthAppend > 0 {
			wal.ScriptDropAppend(cfg.DropNthAppend)
		}
		if cfg.DropNthReplay > 0 {
			wal.ScriptDropReplay(cfg.DropNthReplay)
		}
		if inj != nil {
			wal.ScheduleRecovery(eng, inj.Windows())
		}
	}

	var pol *policy.Engine
	if cfg.Policy != "" {
		var err error
		pol, err = policy.New(cfg.Policy, model, mp, eng, col, mach.N(), cfg.Seed)
		if err != nil {
			panic("countnet: " + err.Error())
		}
		pol.AttachMem(shm)
		rt.Obs = pol
		n.AttachPolicy(pol)
	}

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
		u += mach.Proc(p).Utilization()
	}
	res.EntryUtilization = u / float64(entry)
	res.Trace = tracer
	res.ObjectMoves = rt.Objects.Moves
	res.Forwards = col.Forwards
	if pol != nil {
		res.Policy = pol.Name()
		res.Decisions = n.pol.Decisions()
		st := pol.Stats()
		res.PolicyStats = &st
	}
	if inj != nil {
		c := inj.Counters
		res.Fault = &c
		inj.FlushProfile()
	}
	if wal != nil {
		c := wal.Counters
		res.Recovery = &c
		wal.FlushProfile()
	}
	if inj != nil || wal != nil {
		if err := n.CheckInvariants(opsStarted); err != nil {
			res.InvariantErr = err.Error()
		}
	}
	return res
}

// installWindows applies a fault plan's processor outage windows to the
// machine: deliveries are handled by the network's reliability layer,
// and local work segments stall through the processor's down windows.
func installWindows(inj *fault.Injector, mach *sim.Machine) {
	for _, w := range inj.Windows() {
		if w.Proc < 0 || w.Proc >= mach.N() {
			panic(fmt.Sprintf("countnet: fault window targets proc %d, machine has [0,%d)", w.Proc, mach.N()))
		}
		mach.Proc(w.Proc).AddDownWindow(w.Start, w.End())
	}
}

// topology picks the interconnect: the paper's flat crossbar, or a
// near-square 2D mesh for the topology ablation.
func topology(mesh bool, nprocs int) network.Topology {
	if !mesh {
		return network.Crossbar{}
	}
	w := 1
	for w*w < nprocs {
		w++
	}
	h := (nprocs + w - 1) / w
	return network.NewMesh(w, h)
}
