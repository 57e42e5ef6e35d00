// Autotune: the paper's §6 closes with "we are also developing compiler
// analysis techniques for automatically choosing among the remote access
// mechanisms". This example plays that role: a procedure visits a chain
// of objects, making a different number of consecutive accesses to each.
// The advisor predicts, per object, whether shipping the frame beats
// calling remotely — and the mixed plan it produces beats both pure
// policies.
//
// Run with: go run ./examples/autotune
package main

import (
	"fmt"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// accesses[i] is how many consecutive accesses the procedure makes to
// object i: some objects are touched once, some hammered.
var accesses = []int{1, 9, 1, 6, 12, 1, 2, 8}

const (
	touchWork = 15
	// The procedure carries a scratch buffer (partial results) as live
	// state: migrating means shipping it on every hop, which is what
	// makes the choice interesting — with a tiny frame, §2.5's model
	// says migration simply always wins.
	scratchWords = 120
)

type item struct{ touches int }

type touchReply struct{ v uint64 }

func (r *touchReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.v) }
func (r *touchReply) UnmarshalWords(rd *msg.Reader) error { r.v = rd.U64(); return rd.Err() }

// visitCont walks the chain under a per-object plan: bit i set means
// "migrate to object i", clear means "access it remotely via RPC".
type visitCont struct {
	env     *env
	plan    uint32
	idx     uint32
	acc     uint64
	scratch []uint32 // live working buffer, travels with the frame
}

func (c *visitCont) MarshalWords(w *msg.Writer) {
	w.PutU32(c.plan)
	w.PutU32(c.idx)
	w.PutU64(c.acc)
	w.PutU32s(c.scratch)
}

func (c *visitCont) UnmarshalWords(r *msg.Reader) error {
	c.plan = r.U32()
	c.idx = r.U32()
	c.acc = r.U64()
	c.scratch = r.U32s()
	return r.Err()
}

func (c *visitCont) Run(t *core.Task) {
	e := c.env
	for int(c.idx) < len(e.items) {
		g := e.items[c.idx]
		migrate := c.plan&(1<<c.idx) != 0
		if migrate && !t.IsLocal(g) {
			t.Migrate(g, e.cont, c)
			return
		}
		n := accesses[c.idx]
		if t.IsLocal(g) {
			it := t.State(g).(*item)
			for k := 0; k < n; k++ {
				t.Work(touchWork)
				it.touches++
				c.acc++
			}
		} else {
			for k := 0; k < n; k++ {
				var rep touchReply
				if err := t.Call(g, e.mTouch, nil, &rep); err != nil {
					panic(err)
				}
				c.acc += rep.v
			}
		}
		c.idx++
	}
	t.Return(&touchReply{v: c.acc})
}

type env struct {
	eng    *sim.Engine
	col    *stats.Collector
	rt     *core.Runtime
	items  []gid.GID
	mTouch core.MethodID
	cont   core.ContID
}

func build() *env {
	m := machine.MustNew(machine.Config{Procs: len(accesses) + 1, Seed: 2, Scheme: core.Scheme{Mechanism: core.Migrate}})
	rt := m.RT
	e := &env{eng: m.Eng, col: m.Col, rt: rt}
	for i := range accesses {
		e.items = append(e.items, rt.Objects.New(i+1, &item{}))
	}
	e.mTouch = rt.RegisterMethod("autotune.touch", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(touchWork)
			self.(*item).touches++
			reply.PutU64(1)
		})
	e.cont = rt.RegisterCont("autotune.visit",
		func() core.Continuation { return &visitCont{env: e} })
	return e
}

func run(plan uint32) (result uint64, cycles sim.Time, messages uint64) {
	e := build()
	e.eng.Spawn("client", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, 0)
		start := th.Now()
		var rep touchReply
		entry := &visitCont{env: e, plan: plan, scratch: make([]uint32, scratchWords)}
		if err := task.Do(entry, &rep); err != nil {
			panic(err)
		}
		result = rep.v
		cycles = th.Now() - start
	})
	if err := e.eng.Run(); err != nil {
		panic(err)
	}
	return result, cycles, e.col.TotalMessages()
}

func main() {
	adv := advisor.New(core.Scheme{Mechanism: core.Migrate}.Model())

	var advised uint32
	fmt.Println("advisor decisions (per object):")
	for i, n := range accesses {
		p := advisor.SiteProfile{
			AccessesPerVisit: float64(n),
			ArgWords:         0, ReplyWords: 2,
			ContWords:   5 + scratchWords, // plan+idx+acc+len prefix+buffer
			ShortMethod: true, ChainLength: float64(len(accesses)),
		}
		choice := adv.Choose(p)
		if choice == core.Migrate {
			advised |= 1 << i
		}
		fmt.Printf("  object %d: %2d accesses -> %-8v (%s)\n", i, n, choice, adv.Explain(p))
	}
	fmt.Println()

	allRPC := uint32(0)
	allMig := uint32(1<<len(accesses)) - 1
	fmt.Printf("%-18s %8s %10s %10s\n", "plan", "result", "cycles", "messages")
	for _, p := range []struct {
		name string
		plan uint32
	}{
		{"all RPC", allRPC},
		{"all migrate", allMig},
		{"advisor mix", advised},
	} {
		res, cyc, msgs := run(p.plan)
		fmt.Printf("%-18s %8d %10d %10d\n", p.name, res, cyc, msgs)
	}
	fmt.Println()
	fmt.Println("the advisor migrates only where the access run pays for the move.")
}
