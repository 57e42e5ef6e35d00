// Listtraversal: the paper's motivating scenario — a thread traverses a
// distributed data structure, touching a series of objects that live on
// different processors. We sum a distributed linked list under all three
// remote-access mechanisms and print the cost of each.
//
// Run with: go run ./examples/listtraversal
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

const (
	listLen  = 32
	nprocs   = 8
	nodeWork = 40 // user-code cycles to process one list node
)

// listNode is one element of the distributed list.
type listNode struct {
	value uint64
	next  gid.GID
	addr  mem.Addr // shared-memory image (SM runs only)
}

// nodeReply carries (value, next) to an RPC caller.
type nodeReply struct {
	value uint64
	next  gid.GID
}

func (r *nodeReply) MarshalWords(w *msg.Writer) {
	w.PutU64(r.value)
	w.PutU64(uint64(r.next))
}

func (r *nodeReply) UnmarshalWords(rd *msg.Reader) error {
	r.value = rd.U64()
	r.next = gid.GID(rd.U64())
	return rd.Err()
}

// sumReply is the traversal's final result.
type sumReply struct{ sum uint64 }

func (r *sumReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.sum) }
func (r *sumReply) UnmarshalWords(rd *msg.Reader) error { r.sum = rd.U64(); return rd.Err() }

// sumCont is the migrating traversal: live variables are the running sum
// and the current node.
type sumCont struct {
	contID core.ContID
	cur    gid.GID
	sum    uint64
}

func (c *sumCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.cur))
	w.PutU64(c.sum)
}

func (c *sumCont) UnmarshalWords(r *msg.Reader) error {
	c.cur = gid.GID(r.U64())
	c.sum = r.U64()
	return r.Err()
}

func (c *sumCont) Run(t *core.Task) {
	for !c.cur.IsNil() {
		if !t.IsLocal(c.cur) {
			t.Migrate(c.cur, c.contID, c)
			return
		}
		nd := t.State(c.cur).(*listNode)
		t.Work(nodeWork)
		c.sum += nd.value
		c.cur = nd.next
	}
	t.Return(&sumReply{sum: c.sum})
}

type world struct {
	eng  *sim.Engine
	col  *stats.Collector
	rt   *core.Runtime
	shm  *mem.System
	head gid.GID

	mRead  core.MethodID
	contID core.ContID
}

func build(scheme core.Scheme) *world {
	// One more processor than list nodes: the traversing thread's. The
	// builder adds the shared-memory substrate for the SM scheme.
	m := machine.MustNew(machine.Config{Procs: nprocs + 1, Seed: 7, Scheme: scheme})
	rt := m.RT
	w := &world{eng: m.Eng, col: m.Col, rt: rt, shm: m.Mem}

	// Lay the list out round-robin across the processors — worst-case
	// locality, like a structure built by many different threads.
	next := gid.Nil
	for i := listLen - 1; i >= 0; i-- {
		nd := &listNode{value: uint64(i + 1), next: next}
		home := i % nprocs
		if w.shm != nil {
			nd.addr = w.shm.Alloc(home, 16)
		}
		next = rt.Objects.New(home, nd)
	}
	w.head = next

	w.mRead = rt.RegisterMethod("list.read", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			nd := self.(*listNode)
			t.Work(nodeWork)
			(&nodeReply{value: nd.value, next: nd.next}).MarshalWords(reply)
		})
	w.contID = rt.RegisterCont("list.sum",
		func() core.Continuation { return &sumCont{contID: w.contID} })
	return w
}

func traverse(scheme core.Scheme) (sum uint64, cycles sim.Time, messages, words uint64) {
	w := build(scheme)
	w.eng.Spawn("walker", 0, func(th *sim.Thread) {
		task := w.rt.NewTask(th, nprocs) // thread on its own processor
		start := th.Now()
		switch scheme.Mechanism {
		case core.RPC:
			cur := w.head
			for !cur.IsNil() {
				var rep nodeReply
				if err := task.Call(cur, w.mRead, nil, &rep); err != nil {
					panic(err)
				}
				sum += rep.value
				cur = rep.next
			}
		case core.Migrate:
			var rep sumReply
			if err := task.Do(&sumCont{contID: w.contID, cur: w.head}, &rep); err != nil {
				panic(err)
			}
			sum = rep.sum
		case core.SharedMem:
			cur := w.head
			for !cur.IsNil() {
				nd := w.rt.Objects.State(cur).(*listNode)
				w.shm.Read(th, nprocs, nd.addr, 16)
				task.Work(nodeWork)
				sum += nd.value
				cur = nd.next
			}
		}
		cycles = th.Now() - start
	})
	if err := w.eng.Run(); err != nil {
		panic(err)
	}
	return sum, cycles, w.col.TotalMessages(), w.col.WordsSent
}

func main() {
	fmt.Printf("summing a %d-node list scattered over %d processors\n\n", listLen, nprocs)
	fmt.Printf("%-24s %10s %10s %10s %8s\n", "mechanism", "sum", "cycles", "messages", "words")
	for _, s := range []core.Scheme{
		{Mechanism: core.RPC},
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate},
		{Mechanism: core.Migrate, HWMessaging: true},
	} {
		sum, cyc, msgs, words := traverse(s)
		fmt.Printf("%-24s %10d %10d %10d %8d\n", s.Name(), sum, cyc, msgs, words)
	}
	fmt.Println()
	fmt.Println("the pointer chase is where computation migration shines: one message")
	fmt.Println("per hop and a single short-circuited return, instead of a round trip")
	fmt.Println("(RPC) or a line fetch (shared memory) per node.")
}
