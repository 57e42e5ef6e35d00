// Package machine assembles the simulated machine every experiment runs
// on. The paper compares RPC, data migration and computation migration
// on one machine: one network, one runtime, one cost model (§2.5, §4).
// Here that machine is built in one place, in one order, from one
// Config:
//
//	engine → processors (speeds, outage windows) → collector →
//	interconnect → fault injector → runtime → shared memory → policy
//
// New builds that chain; the caller then builds its data structure on
// it (the app's own Build), and Attach wires the two layers that must
// see the built state: the durability store, whose checkpoints are
// seeded from it for free, and the policy engine, which registers the
// app's call sites. After the run, Report returns the result fields
// every app shares.
//
// Neither New nor Attach draws from the engine's PRNG, and every event
// Attach schedules (recovery at each wipe window) is scheduled where the
// hand-wired builds scheduled it, so the two-phase build leaves every
// simulated run unchanged.
package machine

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/policy"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
)

// Config describes one machine. The zero value of every field but Procs
// is the paper's machine: a crossbar, uniform processor speeds, the
// scheme's software cost model, no faults, no durability, no policy.
type Config struct {
	Procs int // processors, numbered [0, Procs)
	Seed  uint64
	// Scheme supplies the cost model; a SharedMem scheme also gets the
	// shared-memory substrate.
	Scheme core.Scheme
	// Model overrides the scheme-derived cost model.
	Model *cost.Model
	// Mesh selects a near-square 2D mesh with per-hop latency (2 cycles
	// a hop unless the model sets one) instead of the crossbar.
	Mesh bool
	// MemParams overrides the shared-memory substrate parameters.
	MemParams *mem.Params
	// Hetero gives per-processor speed factors (nil = uniform).
	Hetero *cost.Hetero
	// Policy, when non-empty, builds a policy engine ("static:<mech>",
	// "costmodel", "bandit[:eps]") and the shared-memory substrate, since
	// an adaptive decision may route any operation through it.
	Policy string
	// Faults attaches a deterministic fault injector and installs its
	// processor outage windows (nil or all-zero = none).
	Faults *fault.Spec
	// Durable forces the WAL/checkpoint store on; a wipe window in
	// Faults switches it on as well.
	Durable bool
	// DropNthAppend / DropNthReplay make the store lose the nth WAL
	// append or skip the nth replayed record (negative tests).
	DropNthAppend uint64
	DropNthReplay uint64
	// TraceCap, when positive, records the last TraceCap engine events.
	TraceCap int
	// MaxEvents bounds the events the engine processes (0 = no bound).
	MaxEvents uint64
}

// Validate reports what New would reject: a policy spec that does not
// parse, or a fault window on a processor the machine does not have.
func (c Config) Validate() error {
	if c.Policy != "" {
		if err := policy.Validate(c.Policy); err != nil {
			return err
		}
	}
	if c.Faults.Enabled() {
		for _, w := range c.Faults.Windows {
			if w.Proc < 0 || w.Proc >= c.Procs {
				return fmt.Errorf("fault window targets proc %d, machine has [0,%d)", w.Proc, c.Procs)
			}
		}
	}
	return nil
}

// Machine is one assembled machine. The layer fields are nil when the
// configuration leaves that layer out.
type Machine struct {
	Eng   *sim.Engine
	Mach  *sim.Machine
	Col   *stats.Collector
	Net   *network.Network
	RT    *core.Runtime
	Mem   *mem.System     // SharedMem scheme or a policy run
	Inj   *fault.Injector // enabled fault plan
	Trace *sim.Tracer     // TraceCap > 0
	Pol   *policy.Engine  // Policy set
	WAL   *store.Store    // durable run, after Attach

	cfg Config
}

// New builds the machine cfg describes, or returns Validate's error.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, Eng: sim.NewEngine(cfg.Seed)}
	m.Eng.MaxEvents = cfg.MaxEvents
	if cfg.TraceCap > 0 {
		m.Trace = m.Eng.EnableTrace(cfg.TraceCap)
	}
	model := cfg.Scheme.Model()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	m.Mach = sim.NewMachine(m.Eng, cfg.Procs)
	if cfg.Hetero.Enabled() {
		for i, f := range cfg.Hetero.Factors(cfg.Procs) {
			m.Mach.Proc(i).SetSpeed(sim.Time(f), cost.SpeedDen)
		}
	}
	m.Col = stats.NewCollector()
	topo, perHop := topology(cfg.Mesh, cfg.Procs), model.NetTransitPerHop
	if cfg.Mesh && perHop == 0 {
		perHop = 2
	}
	m.Net = network.New(m.Eng, topo, m.Col, model.NetTransitBase, perHop)
	if cfg.Faults.Enabled() {
		m.Inj = fault.NewInjector(cfg.Faults)
		m.Net.AttachFaults(m.Inj)
		// Deliveries into a window are handled by the network's
		// reliability layer; local work stalls through it.
		for _, w := range m.Inj.Windows() {
			m.Mach.Proc(w.Proc).AddDownWindow(w.Start, w.End())
		}
	}
	m.RT = core.New(m.Eng, m.Mach, m.Net, m.Col, model)
	mp := mem.DefaultParams()
	if cfg.MemParams != nil {
		mp = *cfg.MemParams
	}
	if cfg.Scheme.Mechanism == core.SharedMem || cfg.Policy != "" {
		// Building the substrate is host-side only, so a static:<mech>
		// policy run stays byte-identical to its scheme-based twin.
		m.Mem = mem.New(m.Eng, m.Mach, m.Net, m.Col, mp)
	}
	if cfg.Policy != "" {
		var err error
		if m.Pol, err = policy.New(cfg.Policy, model, mp, m.Eng, m.Col, cfg.Procs, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MustNew is New for configurations that cannot fail: it panics on
// Validate's error. The apps' RunExperiment, whose callers validate
// first, and the fixed microbenchmark and example machines use it.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic("machine: " + err.Error())
	}
	return m
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
	return network.NewMesh(w, (nprocs+w-1)/w)
}

// App is what Attach wires into a built application.
type App interface {
	// EnableDurability seeds the store's checkpoints from the built
	// state and installs the app's replay, snapshot and wipe hooks.
	EnableDurability(*store.Store)
	// AttachPolicy registers the app's call sites with the engine.
	AttachPolicy(*policy.Engine)
}

// Attach wires the durability store and the policy engine into app,
// after the app's Build. The store comes first, so the built state
// seeds the checkpoints instead of being charged as simulated appends.
func (m *Machine) Attach(app App) {
	if m.cfg.Durable || m.cfg.Faults.HasWipe() {
		m.WAL = store.New(m.Mach, m.Col, cost.DefaultDurability(), m.cfg.Faults.CkptInterval(), m.RT.Objects.Home)
		app.EnableDurability(m.WAL)
		m.RT.Objects.SetJournal(m.WAL)
		if m.cfg.DropNthAppend > 0 {
			m.WAL.ScriptDropAppend(m.cfg.DropNthAppend)
		}
		if m.cfg.DropNthReplay > 0 {
			m.WAL.ScriptDropReplay(m.cfg.DropNthReplay)
		}
		if m.Inj != nil {
			m.WAL.ScheduleRecovery(m.Eng, m.Inj.Windows())
		}
	}
	if m.Pol != nil {
		m.Pol.AttachMem(m.Mem)
		if m.cfg.Hetero.Enabled() {
			factors := m.cfg.Hetero.Factors(m.cfg.Procs)
			speeds := make([]float64, len(factors))
			for i, f := range factors {
				speeds[i] = float64(f) / float64(cost.SpeedDen)
			}
			m.Pol.SetSpeeds(speeds)
		}
		m.RT.Obs = m.Pol
		app.AttachPolicy(m.Pol)
	}
}

// Report holds the result fields every app fills the same way.
type Report struct {
	// Policy names the policy of a policy run ("" otherwise); Decisions
	// counts its choices over every call site, indexed by
	// core.Mechanism; PolicyStats is the engine's final statistics.
	Policy      string
	Decisions   [4]uint64
	PolicyStats *policy.Stats
	// Fault holds the injector's counters (nil without a fault plan).
	Fault *fault.Counters
	// Recovery holds the store's counters (nil when it was off).
	Recovery *store.Counters
}

// Report collects the policy, fault and recovery results after the run
// and flushes the injector's and the store's profile counters.
func (m *Machine) Report() Report {
	var r Report
	if m.Pol != nil {
		r.Policy = m.Pol.Name()
		for _, s := range m.Pol.Sites() {
			for i, d := range s.Decisions() {
				r.Decisions[i] += d
			}
		}
		st := m.Pol.Stats()
		r.PolicyStats = &st
	}
	if m.Inj != nil {
		c := m.Inj.Counters
		r.Fault = &c
		m.Inj.FlushProfile()
	}
	if m.WAL != nil {
		c := m.WAL.Counters
		r.Recovery = &c
		m.WAL.FlushProfile()
	}
	return r
}

// Release returns the shared-memory substrate's pooled metadata. The
// machine must not run afterwards.
func (m *Machine) Release() { m.Mem.Release() }
