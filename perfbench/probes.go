package main

import (
	"fmt"
	"time"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/load"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/policy"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
)

// A probe times calls into one layer's public functions, on inputs
// shaped like the workloads, with the mem fast path on as in the
// workloads. Each batch builds its own fixture untimed and returns host
// nanoseconds per call under the probe's name (the mem probe returns
// several values); a value's result is its median over probeBatches.
type probe struct {
	name  string
	batch func() map[string]float64
}

const probeBatches = 7

func one(name string, f func() float64) probe {
	return probe{name, func() map[string]float64 { return map[string]float64{name: f()} }}
}

var probes = []probe{
	one("sim.event_ns", probeEvent),
	one("sim.switch_ns", probeSwitch),
	{"mem", probeMem},
	one("network.send_ns", probeSend),
	one("msg.ns_per_word", probeCodec),
	one("core.rpc_ns", func() float64 { return probeCore(core.RPC) }),
	one("core.migrate_ns", func() float64 { return probeCore(core.Migrate) }),
	one("store.append_ns", probeAppend),
	one("policy.decide_ns", probeDecide),
	one("load.gen_ns_per_event", probeLoad),
}

func perCall(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func mustRun(eng *sim.Engine, what string) {
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("perfbench: %s probe: %v", what, err))
	}
}

// probeEvent: Engine.Schedule plus dispatch of a trivial event, with 64
// far-future events keeping the heap at a fixed depth.
func probeEvent() float64 {
	const n, depth = 200000, 64
	eng := sim.NewEngine(1)
	for i := 0; i < depth; i++ {
		eng.Schedule(1<<40+sim.Time(i), func() {})
	}
	left := n
	var step func()
	step = func() {
		if left--; left > 0 {
			eng.Schedule(1, step)
		}
	}
	eng.Schedule(1, step)
	t0 := time.Now()
	if err := eng.RunUntil(1 << 39); err != nil {
		panic(fmt.Sprintf("perfbench: event probe: %v", err))
	}
	return perCall(time.Since(t0), n)
}

// probeSwitch: Thread.Unpark/Park handoff between two simulated threads
// (one switch per call, two per round trip).
func probeSwitch() float64 {
	const rounds = 20000
	eng := sim.NewEngine(1)
	var ping, pong *sim.Thread
	done := false
	pong = eng.Spawn("pong", 0, func(th *sim.Thread) {
		for {
			th.Park("pong")
			if done {
				return
			}
			ping.Unpark()
		}
	})
	ping = eng.Spawn("ping", 1, func(th *sim.Thread) {
		for i := 0; i < rounds; i++ {
			pong.Unpark()
			th.Park("ping")
		}
		done = true
		pong.Unpark()
	})
	t0 := time.Now()
	mustRun(eng, "switch")
	return perCall(time.Since(t0), 2*rounds)
}

// smMachine is a two-processor machine with the shared-memory substrate
// and a crossbar network priced as in the SM workloads.
func smMachine(procs int) (*sim.Engine, *sim.Machine, *network.Network, *stats.Collector, *mem.System) {
	eng := sim.NewEngine(1)
	mach := sim.NewMachine(eng, procs)
	col := stats.NewCollector()
	md := core.Scheme{Mechanism: core.SharedMem}.Model()
	net := network.New(eng, network.Crossbar{}, col, md.NetTransitBase, md.NetTransitPerHop)
	return eng, mach, net, col, mem.New(eng, mach, net, col, mem.DefaultParams())
}

// probeMem: System.Read of a line already in the reader's cache (hit),
// and of distinct lines homed on the other processor (remote miss). It
// also counts the events and sends one remote miss causes, so the
// attribution can price a miss without them. The engine and network
// count those only while the profile layer is on, so they are counted
// in a second, untimed loop over lines the timed loop did not touch.
func probeMem() map[string]float64 {
	const hits, misses = 20000, 2000
	eng, _, _, _, shm := smMachine(2)
	defer shm.Release()
	const line = 16
	hot := shm.Alloc(1, line)
	cold := shm.Alloc(1, line*misses)
	counted := shm.Alloc(1, line*misses)
	out := make(map[string]float64)
	eng.Spawn("mem.probe", 0, func(th *sim.Thread) {
		shm.Read(th, 0, hot, 8)
		t0 := time.Now()
		for i := 0; i < hits; i++ {
			shm.Read(th, 0, hot, 8)
		}
		out["mem.hit_ns"] = perCall(time.Since(t0), hits)
		t0 = time.Now()
		for i := 0; i < misses; i++ {
			shm.Read(th, 0, cold+mem.Addr(i*line), 8)
		}
		out["mem.miss_ns"] = perCall(time.Since(t0), misses)

		was := profile.Enabled()
		profile.Enable(true)
		before := profile.Snapshot()
		for i := 0; i < misses; i++ {
			shm.Read(th, 0, counted+mem.Addr(i*line), 8)
		}
		d := counterDelta(before, profile.Snapshot())
		profile.Enable(was)
		out["mem.miss_events"] = float64(d["engine.heap_pushes"]) / misses
		out["mem.miss_sends"] = float64(d["net.sends"]) / misses
	})
	mustRun(eng, "mem")
	if out["mem.miss_events"] == 0 || out["mem.miss_sends"] == 0 {
		panic("perfbench: mem probe counted no events or sends for a remote miss")
	}
	return out
}

// memMissSelfNs prices one slow-path access without the events and
// sends it causes, which the sim and network shares already count.
func memMissSelfNs(p map[string]float64) float64 {
	return max(0, p["mem.miss_ns"]-p["mem.miss_events"]*p["sim.event_ns"]-p["mem.miss_sends"]*p["network.send_ns"])
}

// probeSend: Network.Send of an 8-word message across the crossbar,
// deliveries drained untimed after each batch.
func probeSend() float64 {
	const batch, batches = 512, 40
	eng := sim.NewEngine(1)
	col := stats.NewCollector()
	md := core.Scheme{Mechanism: core.RPC}.Model()
	net := network.New(eng, network.Crossbar{}, col, md.NetTransitBase, md.NetTransitPerHop)
	arrive := func(*network.Message) {}
	msgs := make([]network.Message, batch)
	var total time.Duration
	for b := 0; b < batches; b++ {
		for i := range msgs {
			msgs[i] = network.Message{Src: i % 4, Dst: 4 + i%4, Kind: "probe", Payload: make([]uint32, 8)}
		}
		t0 := time.Now()
		for i := range msgs {
			net.Send(&msgs[i], arrive)
		}
		total += time.Since(t0)
		mustRun(eng, "send")
	}
	return perCall(total, batch*batches)
}

// probeCodec: Writer/Reader round trip of a 16-word continuation record
// (a counting-network traversal's live variables plus a small GID list).
func probeCodec() float64 {
	const n, words = 50000, 16
	var sink uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w := msg.NewWriter(words)
		w.PutU32(uint32(i))
		w.PutU32(3)
		w.PutU64(uint64(i) * 7)
		w.PutU32s([]uint32{1, 2, 3, 4, 5, 6})
		w.PutU64(uint64(i))
		w.PutBool(true)
		r := msg.NewReader(w.Words())
		sink += uint64(r.U32()) + uint64(r.U32()) + r.U64()
		sink += uint64(len(r.U32s())) + r.U64()
		if r.Bool() {
			sink++
		}
		if r.Err() != nil || r.Remaining() != 0 {
			panic("perfbench: codec probe round trip lost words")
		}
	}
	d := time.Since(t0)
	if sink == 0 {
		panic("perfbench: codec probe read nothing")
	}
	return perCall(d, n*words)
}

type probeCell struct{ touched uint64 }

type probeReply struct{ v uint32 }

func (r *probeReply) MarshalWords(w *msg.Writer)          { w.PutU32(r.v) }
func (r *probeReply) UnmarshalWords(rd *msg.Reader) error { r.v = rd.U32(); return rd.Err() }

// hopCont migrates back and forth between two cells hops times.
type hopCont struct {
	cont  core.ContID
	cells [2]gid.GID
	left  uint32
}

func (c *hopCont) MarshalWords(w *msg.Writer) {
	w.PutU32(c.left)
	w.PutU64(uint64(c.cells[0]))
	w.PutU64(uint64(c.cells[1]))
}

func (c *hopCont) UnmarshalWords(r *msg.Reader) error {
	c.left = r.U32()
	c.cells[0] = gid.GID(r.U64())
	c.cells[1] = gid.GID(r.U64())
	return r.Err()
}

func (c *hopCont) Run(t *core.Task) {
	for c.left > 0 {
		g := c.cells[c.left%2]
		if !t.IsLocal(g) {
			t.Migrate(g, c.cont, c)
			return
		}
		t.State(g).(*probeCell).touched++
		c.left--
	}
	t.Return(nil)
}

// probeCore: a Task.Call round trip to an object on the other processor
// (RPC), or one Task.Migrate hop between two processors (Migrate), on a
// two-processor runtime.
func probeCore(mech core.Mechanism) float64 {
	const n = 4000
	eng := sim.NewEngine(1)
	mach := sim.NewMachine(eng, 2)
	col := stats.NewCollector()
	md := core.Scheme{Mechanism: mech}.Model()
	net := network.New(eng, network.Crossbar{}, col, md.NetTransitBase, md.NetTransitPerHop)
	rt := core.New(eng, mach, net, col, md)
	get := rt.RegisterMethod("probe.get", true, func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
		self.(*probeCell).touched++
		reply.PutU32(0)
	})
	cont := &hopCont{}
	cont.cont = rt.RegisterCont("probe.hop", func() core.Continuation { return &hopCont{cont: cont.cont} })
	cont.cells = [2]gid.GID{rt.Objects.New(0, &probeCell{}), rt.Objects.New(1, &probeCell{})}
	cont.left = n
	var d time.Duration
	eng.Spawn("core.probe", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		t0 := time.Now()
		if mech == core.RPC {
			for i := 0; i < n; i++ {
				var rep probeReply
				if err := task.Call(cont.cells[1], get, nil, &rep); err != nil {
					panic(err)
				}
			}
		} else if err := task.Do(cont, nil); err != nil {
			panic(err)
		}
		d = time.Since(t0)
	})
	mustRun(eng, "core")
	return perCall(d, n)
}

// probeAppend: Store.Append of a home-local state record, as a kv put
// logs it, with the checkpoint interval kv-serve uses.
func probeAppend() float64 {
	const n = 20000
	eng := sim.NewEngine(1)
	mach := sim.NewMachine(eng, 2)
	col := stats.NewCollector()
	st := store.New(mach, col, cost.DefaultDurability(), kvWipes().Ckpt, func(g gid.GID) int { return g.Home() })
	g := gid.Make(0, 1)
	var d time.Duration
	eng.Spawn("store.probe", 0, func(th *sim.Thread) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			st.Append(th, 0, store.Record{Kind: store.KindState, G: g, Sub: uint64(i % 512), A: uint64(i)})
		}
		d = time.Since(t0)
	})
	mustRun(eng, "store")
	return perCall(d, n)
}

// probeDecide: Site.Begin plus Site.End on a costmodel site shaped like
// a kv point operation.
func probeDecide() float64 {
	const n = 50000
	eng, _, _, col, shm := smMachine(12)
	defer shm.Release()
	md := core.Scheme{}.Model()
	pol, err := policy.New("costmodel", md, mem.DefaultParams(), eng, col, 12, 1)
	if err != nil {
		panic(err)
	}
	pol.AttachMem(shm)
	site := pol.NewSite("probe", advisor.SiteProfile{
		AccessesPerVisit: 3, ArgWords: 2, ReplyWords: 2, ContWords: 6,
		ShortMethod: true, ChainLength: 1, WorkCycles: 200,
	})
	targets := []gid.GID{gid.Make(1, 1), gid.Make(3, 1), gid.Make(5, 1), gid.Make(7, 1)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		proc := 8 + i%4
		m := site.Begin(proc, targets[i%len(targets)])
		site.End(proc, m, 500)
	}
	return perCall(time.Since(t0), n)
}

// probeLoad: NewGen plus Events on kv-serve's load spec.
func probeLoad() float64 {
	spec := kvLoad(20000)
	t0 := time.Now()
	events := load.NewGen(spec, 1).Events()
	return perCall(time.Since(t0), len(events))
}

// runProbes runs every probe and returns its median ns per call. The
// profile layer's timing is off while they run, as in the workloads.
func runProbes(tr *tracer, parent int) map[string]float64 {
	profile.Enable(false)
	vals := make(map[string][]float64)
	for _, p := range probes {
		id := tr.begin(p.name, parent)
		for i := 0; i < probeBatches; i++ {
			for k, v := range p.batch() {
				vals[k] = append(vals[k], v)
			}
		}
		tr.end(id)
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
