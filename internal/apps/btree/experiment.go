package btree

import (
	"slices"
	"sync" //simvet:allow host-side workload memoization (GenKeys cache) shared across harness workers; keys are a pure function of the PRNG state

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/policy"
	"compmig/internal/repl"
	"compmig/internal/sim"
	"compmig/internal/store"
)

// Config describes one B-tree run (one row of Tables 1-4).
type Config struct {
	Params
	InitialKeys int     // 10000 in the paper
	Threads     int     // 16, each on its own processor
	Think       uint64  // 0 or 10000 cycles
	LookupFrac  float64 // fraction of operations that are lookups
	KeySpace    uint64  // keys drawn uniformly from [1, KeySpace]
	Scheme      core.Scheme
	Seed        uint64

	Warmup  sim.Time
	Measure sim.Time

	// Ablation knobs (nil/false reproduce the paper's configuration).
	Model     *cost.Model // override the scheme-derived cost model
	Mesh      bool        // 2D mesh with per-hop latency instead of a crossbar
	MemParams *mem.Params // override the shared-memory substrate parameters
	// TraceCap, when positive, records the last TraceCap simulation
	// events into Result.Trace.
	TraceCap int
	// SMPrefetch enables key-array prefetching on shared-memory descents.
	SMPrefetch bool
	// HotOpFrac and HotKeyFrac skew the workload: HotOpFrac of the
	// operations draw their key from the bottom HotKeyFrac of the key
	// space (both zero = the paper's uniform workload).
	HotOpFrac  float64
	HotKeyFrac float64
	// Policy, when non-empty, selects the remote-access mechanism per
	// operation through an internal/policy engine instead of the static
	// scheme: "static:<mech>", "costmodel", or "bandit[:eps]". The
	// shared-memory substrate is always built so adaptive policies can
	// route through it. Scheme still supplies the cost model.
	Policy string
	// Faults, when it enables any fault, attaches a deterministic fault
	// injector to the network and runs the post-run invariant checker.
	Faults *fault.Spec
	// Durable forces the WAL/checkpoint store on. It also switches on
	// automatically whenever Faults schedules a wipe window — a
	// loss-inducing crash without durability would trivially violate the
	// key-set invariant.
	Durable bool
	// DropNthAppend / DropNthReplay are negative-test levers: lose the
	// nth WAL append (an acked write never reaching the log) or skip the
	// nth replayed record during recovery. The post-run checker must fire.
	DropNthAppend uint64
	DropNthReplay uint64
	// MaxEvents, when nonzero, bounds the events the engine
	// processes (sim.Engine.MaxEvents): a run that would exceed it
	// panics ("did not quiesce") instead of running on.
	MaxEvents uint64
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Fanout == 0 {
		c.Params = DefaultParams()
	}
	if c.InitialKeys == 0 {
		c.InitialKeys = 10000
	}
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.LookupFrac == 0 {
		c.LookupFrac = 0.5
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 30
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
	return c
}

// Result is one measured row.
type Result struct {
	Scheme       string
	Think        uint64
	Throughput   float64 // operations per 1000 cycles (Tables 1, 3)
	Bandwidth    float64 // words per 10 cycles (Tables 2, 4)
	Ops          uint64
	MeanLatency  float64
	HitRate      float64 // SM cache hit rate (paper: <7%)
	WordsPerOp   float64
	RootChildren int
	Height       int
	// P95Latency is the 95th-percentile operation latency (upper bound).
	P95Latency uint64
	// RootUtilization is the busy fraction of the root node's processor —
	// direct evidence of the paper's root-bottleneck analysis (§4.2).
	RootUtilization float64
	// Trace holds the tail of the execution trace when Config.TraceCap
	// was set.
	Trace *sim.Tracer
	// ObjectMoves and Forwards report Emerald-style mobility activity
	// (nonzero only under the ObjMigrate scheme).
	ObjectMoves uint64
	Forwards    uint64
	// Policy names the policy a policy run used ("" for static schemes);
	// Decisions sums its per-mechanism choices across the lookup and
	// insert sites, indexed by core.Mechanism; PolicyStats is the
	// engine's final statistics dump.
	Policy      string
	Decisions   [4]uint64
	PolicyStats *policy.Stats
	// Fault holds the injected-fault and recovery counters of a faulty
	// run (nil when no fault plan was active); InvariantErr is the
	// post-run integrity checker's verdict ("" = all invariants held).
	Fault        *fault.Counters
	InvariantErr string
	// Recovery holds the durability-store counters of a durable run
	// (nil when the store was off).
	Recovery *store.Counters
}

// Machine returns the machine a run of c needs: the node processors
// first, then one processor per requester.
func (c Config) Machine() machine.Config {
	c = c.WithDefaults()
	return machine.Config{
		Procs: c.NodeProcs + c.Threads, Seed: c.Seed,
		Scheme: c.Scheme, Model: c.Model, Mesh: c.Mesh, MemParams: c.MemParams,
		Policy: c.Policy, Faults: c.Faults, Durable: c.Durable,
		DropNthAppend: c.DropNthAppend, DropNthReplay: c.DropNthReplay,
		TraceCap: c.TraceCap, MaxEvents: c.MaxEvents,
	}
}

// RunExperiment builds a fresh machine and tree, runs the mixed
// lookup/insert workload, and reports windowed throughput and bandwidth.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	m := machine.MustNew(cfg.Machine())
	defer m.Release()
	eng, col, rt := m.Eng, m.Col, m.RT
	var tbl *repl.Table
	if cfg.Scheme.Replication {
		tbl = repl.NewTable(rt)
	}

	keyRNG := eng.Rand().Fork()
	initialKeys := GenKeys(keyRNG, cfg.InitialKeys, cfg.KeySpace)
	tr := Build(rt, m.Mem, tbl, cfg.Scheme, cfg.Params, initialKeys)
	tr.SMPrefetch = cfg.SMPrefetch
	m.Attach(tr)

	// inserted tracks keys the workload successfully added, for the
	// post-run key-set integrity check. Allocated only under faults or
	// durability so the plain path stays untouched.
	var inserted map[uint64]struct{}
	if m.Inj != nil || cfg.Durable {
		inserted = make(map[uint64]struct{})
	}

	stop := cfg.Warmup + cfg.Measure
	for i := 0; i < cfg.Threads; i++ {
		proc := cfg.NodeProcs + i
		rng := keyRNG.Fork()
		delay := sim.Time(rng.Intn(300))
		eng.Spawn("requester", delay, func(th *sim.Thread) {
			task := rt.NewTask(th, proc)
			for th.Now() < stop {
				start := th.Now()
				span := cfg.KeySpace
				if cfg.HotOpFrac > 0 && rng.Float64() < cfg.HotOpFrac {
					span = uint64(float64(cfg.KeySpace) * cfg.HotKeyFrac)
					if span == 0 {
						span = 1
					}
				}
				key := 1 + rng.Uint64n(span)
				if rng.Float64() < cfg.LookupFrac {
					tr.Lookup(task, key)
				} else if added := tr.Insert(task, key); added && inserted != nil {
					inserted[key] = struct{}{}
				}
				col.CountOp(uint64(th.Now() - start))
				if cfg.Think > 0 {
					task.Think(cfg.Think)
				}
			}
		})
	}

	eng.Schedule(cfg.Warmup, func() { col.MarkWindow(uint64(cfg.Warmup)) })
	res := Result{Scheme: cfg.Scheme.Name(), Think: cfg.Think}
	eng.Schedule(stop, func() {
		res.Throughput = col.Throughput(uint64(stop))
		res.Bandwidth = col.Bandwidth(uint64(stop))
	})
	if err := eng.Run(); err != nil {
		panic("btree: experiment did not quiesce: " + err.Error())
	}

	res.Ops = col.Ops
	res.MeanLatency = col.MeanOpLatency()
	res.HitRate = col.HitRate()
	if col.Ops > 0 {
		res.WordsPerOp = float64(col.WordsSent) / float64(col.Ops)
	}
	res.RootChildren = tr.RootChildren()
	res.Height = tr.Height()
	res.P95Latency = col.Latency.Quantile(0.95)
	res.RootUtilization = m.Mach.Proc(tr.Root().Home()).Utilization()
	res.Trace = m.Trace
	res.ObjectMoves = rt.Objects.Moves
	res.Forwards = col.Forwards
	rep := m.Report()
	res.Policy, res.Decisions, res.PolicyStats = rep.Policy, rep.Decisions, rep.PolicyStats
	res.Fault, res.Recovery = rep.Fault, rep.Recovery
	// Durable fault-free runs verify too: the WAL path must not perturb
	// tree contents.
	if m.Inj != nil || m.WAL != nil {
		if err := tr.VerifyKeySet(initialKeys, inserted); err != nil {
			res.InvariantErr = err.Error()
		}
	}
	return res
}

// keyCache memoizes GenKeys results: every run of a table sweep draws
// the same workload from an identically-seeded fork, so the key set is
// generated once and copied out afterwards. The key is the generator's
// exact state plus the arguments, which fully determine the output.
// Guarded by a mutex because harness workers build experiments
// concurrently.
type keyCacheKey struct {
	state [4]uint64
	n     int
	space uint64
}

// keyCacheEntry records the generated keys and how many Uint64 draws
// producing them consumed (n plus duplicate retries), so a cache hit can
// leave rng in exactly the state generation would have: callers fork
// workload streams off the generator afterwards.
type keyCacheEntry struct {
	keys  []uint64
	draws int
}

var (
	keyCacheMu sync.Mutex
	keyCache   = map[keyCacheKey]keyCacheEntry{}
)

// GenKeys draws n distinct sorted keys uniformly from [1, space]. The
// result is a pure function of (rng state, n, space) and is memoized;
// rng is always left in the same state as an uncached generation.
func GenKeys(rng *sim.PRNG, n int, space uint64) []uint64 {
	ck := keyCacheKey{state: rng.State(), n: n, space: space}
	keyCacheMu.Lock()
	cached, hit := keyCache[ck]
	keyCacheMu.Unlock()
	if hit {
		for i := 0; i < cached.draws; i++ {
			rng.Uint64()
		}
		// Copy with capacity exactly n, matching what generation builds.
		out := make([]uint64, len(cached.keys))
		copy(out, cached.keys)
		return out
	}
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	draws := 0
	for len(keys) < n {
		k := 1 + rng.Uint64n(space)
		draws++
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keyCacheMu.Lock()
	keyCache[ck] = keyCacheEntry{keys: slices.Clone(keys), draws: draws}
	keyCacheMu.Unlock()
	return keys
}
