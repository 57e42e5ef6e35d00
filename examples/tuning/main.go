// Tuning: the paper's §3.1 claim in action — the migration annotation is
// a performance knob, not a semantic one. A two-phase procedure makes
// many accesses to object A and then one access to object B. We try all
// placements of the annotation and show the answer never changes while
// the cost does; the best placement migrates where the access run is
// long (A) and uses RPC where it is short (B).
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

const (
	accessesA = 12 // long run of accesses to A
	accessesB = 1  // single access to B
	workA     = 20
	workB     = 20
)

type record struct{ hits uint64 }

// phaseReply returns the combined count.
type phaseReply struct{ total uint64 }

func (r *phaseReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.total) }
func (r *phaseReply) UnmarshalWords(rd *msg.Reader) error { r.total = rd.U64(); return rd.Err() }

// plan says where the procedure migrates: at its accesses to A, to B,
// both, or neither (pure RPC).
type plan struct {
	migrateA bool
	migrateB bool
}

func (p plan) String() string {
	switch {
	case p.migrateA && p.migrateB:
		return "migrate at A and at B"
	case p.migrateA:
		return "migrate at A, RPC to B"
	case p.migrateB:
		return "RPC to A, migrate at B"
	default:
		return "RPC everywhere"
	}
}

// phaseCont is the migratable two-phase procedure. Its live variables:
// which phase it is in, the running total, and the object ids.
type phaseCont struct {
	w     *world
	p     plan
	phase uint32 // 0: at A, 1: at B
	total uint64
	a, b  gid.GID
}

func (c *phaseCont) MarshalWords(w *msg.Writer) {
	w.PutU32(boolsToWord(c.p.migrateA, c.p.migrateB))
	w.PutU32(c.phase)
	w.PutU64(c.total)
	w.PutU64(uint64(c.a))
	w.PutU64(uint64(c.b))
}

func (c *phaseCont) UnmarshalWords(r *msg.Reader) error {
	flags := r.U32()
	c.p.migrateA = flags&1 != 0
	c.p.migrateB = flags&2 != 0
	c.phase = r.U32()
	c.total = r.U64()
	c.a = gid.GID(r.U64())
	c.b = gid.GID(r.U64())
	return r.Err()
}

func boolsToWord(a, b bool) uint32 {
	var v uint32
	if a {
		v |= 1
	}
	if b {
		v |= 2
	}
	return v
}

func (c *phaseCont) Run(t *core.Task) {
	w := c.w
	if c.phase == 0 {
		if c.p.migrateA && !t.IsLocal(c.a) {
			t.Migrate(c.a, w.cont, c)
			return
		}
		for i := 0; i < accessesA; i++ {
			c.total += w.touch(t, c.a, w.mTouchA)
		}
		c.phase = 1
	}
	if c.p.migrateB && !t.IsLocal(c.b) {
		t.Migrate(c.b, w.cont, c)
		return
	}
	for i := 0; i < accessesB; i++ {
		c.total += w.touch(t, c.b, w.mTouchB)
	}
	t.Return(&phaseReply{total: c.total})
}

type world struct {
	eng  *sim.Engine
	col  *stats.Collector
	rt   *core.Runtime
	a, b gid.GID

	mTouchA core.MethodID
	mTouchB core.MethodID
	cont    core.ContID
}

// touch performs one access: local when the task is at the object (the
// migrated case), a remote call otherwise.
func (w *world) touch(t *core.Task, g gid.GID, m core.MethodID) uint64 {
	var rep phaseReply
	if err := t.Call(g, m, nil, &rep); err != nil {
		panic(err)
	}
	return rep.total
}

func build() *world {
	// Thread on 0, A on 1, B on 2.
	m := machine.MustNew(machine.Config{Procs: 3, Seed: 11, Scheme: core.Scheme{Mechanism: core.Migrate}})
	rt := m.RT
	w := &world{eng: m.Eng, col: m.Col, rt: rt}
	w.a = rt.Objects.New(1, &record{})
	w.b = rt.Objects.New(2, &record{})
	w.mTouchA = rt.RegisterMethod("tuning.touchA", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			rec := self.(*record)
			t.Work(workA)
			rec.hits++
			reply.PutU64(1)
		})
	w.mTouchB = rt.RegisterMethod("tuning.touchB", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			rec := self.(*record)
			t.Work(workB)
			rec.hits++
			reply.PutU64(1)
		})
	w.cont = rt.RegisterCont("tuning.phase",
		func() core.Continuation { return &phaseCont{w: w} })
	return w
}

func main() {
	fmt.Printf("two-phase procedure: %d accesses to A (proc 1), then %d to B (proc 2)\n\n",
		accessesA, accessesB)
	fmt.Printf("%-26s %8s %10s %10s\n", "annotation placement", "result", "cycles", "messages")
	for _, p := range []plan{
		{false, false},
		{false, true},
		{true, false},
		{true, true},
	} {
		w := build()
		var total uint64
		var cycles sim.Time
		w.eng.Spawn("client", 0, func(th *sim.Thread) {
			task := w.rt.NewTask(th, 0)
			start := th.Now()
			var rep phaseReply
			if err := task.Do(&phaseCont{w: w, p: p, a: w.a, b: w.b}, &rep); err != nil {
				panic(err)
			}
			total = rep.total
			cycles = th.Now() - start
		})
		if err := w.eng.Run(); err != nil {
			panic(err)
		}
		fmt.Printf("%-26s %8d %10d %10d\n", p, total, cycles, w.col.TotalMessages())
	}
	fmt.Println()
	fmt.Println("every placement computes the same result; only the cost moves.")
	fmt.Println("changing the annotation is a one-line tuning edit (§3.1).")
}
