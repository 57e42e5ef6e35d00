// Frames: the paper's §6 says flexible control over what migrates is
// "essential" — single frames, multiple frames, and partial frames. A
// procedure with a heavy local buffer must probe a remote table five
// times. Its choices:
//
//   - rpc: stay home and pay a round trip per probe;
//   - whole-frame: migrate to the table — the probes become local, but
//     the heavy buffer (live state of the frame) crosses the wire;
//   - partial: split the frame (MigratePartial) — a small probe
//     continuation migrates and runs its five accesses locally, while
//     the buffer half stays home and combines the result on return.
//
// Run with: go run ./examples/frames
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
	bufWords = 200 // the caller's working buffer (live, but heavy)
	probes   = 5   // accesses the procedure makes to the remote table
)

type table struct{ rows uint64 }

type numReply struct{ v uint64 }

func (r *numReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.v) }
func (r *numReply) UnmarshalWords(rd *msg.Reader) error { r.v = rd.U64(); return rd.Err() }

// scanCont is the callee: it scans the remote table and returns a count.
type scanCont struct {
	env *env
	tbl gid.GID
}

func (c *scanCont) MarshalWords(w *msg.Writer)         { w.PutU64(uint64(c.tbl)) }
func (c *scanCont) UnmarshalWords(r *msg.Reader) error { c.tbl = gid.GID(r.U64()); return r.Err() }

func (c *scanCont) Run(t *core.Task) {
	if !t.IsLocal(c.tbl) {
		t.Migrate(c.tbl, c.env.scanID, c)
		return
	}
	var rows uint64
	for i := 0; i < probes; i++ {
		rows += t.State(c.tbl).(*table).rows
		t.Work(80)
	}
	t.Return(&numReply{v: rows})
}

// combine is the caller's second half: fold the scan result into the
// buffer summary. As a Resumable it can either ride along (multi-frame)
// or stay behind (partial).
type combine struct {
	env *env
	buf []uint32
}

func (c *combine) MarshalWords(w *msg.Writer)         { w.PutU32s(c.buf) }
func (c *combine) UnmarshalWords(r *msg.Reader) error { c.buf = r.U32s(); return r.Err() }
func (c *combine) Run(t *core.Task)                   { panic("combine is resumed, not run") }

func (c *combine) Resume(t *core.Task, result *msg.Reader) {
	var rep numReply
	if err := rep.UnmarshalWords(result); err != nil {
		panic(err)
	}
	t.Work(30)
	t.Return(&numReply{v: rep.v + uint64(len(c.buf))})
}

type env struct {
	eng       *sim.Engine
	col       *stats.Collector
	rt        *core.Runtime
	tbl       gid.GID
	mProbe    core.MethodID
	scanID    core.ContID
	combineID core.ContID
}

func build() *env {
	m := machine.MustNew(machine.Config{Procs: 2, Seed: 4, Scheme: core.Scheme{Mechanism: core.Migrate}})
	rt := m.RT
	e := &env{eng: m.Eng, col: m.Col, rt: rt}
	e.tbl = rt.Objects.New(1, &table{rows: 1000})
	e.mProbe = rt.RegisterMethod("frames.probe", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(80)
			reply.PutU64(self.(*table).rows)
		})
	e.scanID = rt.RegisterCont("frames.scan", func() core.Continuation { return &scanCont{env: e} })
	e.combineID = rt.RegisterCont("frames.combine", func() core.Continuation { return &combine{env: e} })
	return e
}

// entry kicks off the computation under the chosen granularity.
type entry struct {
	env  *env
	mode string
}

func (en *entry) MarshalWords(w *msg.Writer)         { w.PutU32(0) }
func (en *entry) UnmarshalWords(r *msg.Reader) error { r.U32(); return r.Err() }

func (en *entry) Run(t *core.Task) {
	e := en.env
	buf := make([]uint32, bufWords)
	scan := &scanCont{env: e, tbl: e.tbl}
	switch en.mode {
	case "rpc":
		var rows uint64
		for i := 0; i < probes; i++ {
			var rep numReply
			if err := t.Call(e.tbl, e.mProbe, nil, &rep); err != nil {
				panic(err)
			}
			rows += rep.v
		}
		t.Work(30)
		t.Return(&numReply{v: rows + uint64(len(buf))})
	case "whole-frame":
		// The buffer is live state of this frame: migrating the whole
		// frame means it rides along.
		t.PushFrame(e.combineID, &combine{env: e, buf: buf})
		scan.Run(t)
	case "partial":
		t.MigratePartial(e.tbl, e.scanID, scan, e.combineID, &combine{env: e, buf: buf})
	}
}

func run(mode string) (result uint64, cycles sim.Time, words uint64) {
	e := build()
	e.eng.Spawn("client", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, 0)
		start := th.Now()
		var rep numReply
		if err := task.Do(&entry{env: e, mode: mode}, &rep); err != nil {
			panic(err)
		}
		result = rep.v
		cycles = th.Now() - start
	})
	if err := e.eng.Run(); err != nil {
		panic(err)
	}
	return result, cycles, e.col.WordsSent
}

func main() {
	fmt.Printf("probe a remote table %d times, then combine with a %d-word local buffer\n\n", probes, bufWords)
	fmt.Printf("%-14s %8s %10s %12s\n", "granularity", "result", "cycles", "wire words")
	for _, mode := range []string{"rpc", "whole-frame", "partial"} {
		res, cyc, words := run(mode)
		fmt.Printf("%-14s %8d %10d %12d\n", mode, res, cyc, words)
	}
	fmt.Println()
	fmt.Println("RPC pays a round trip per probe; whole-frame migration drags the buffer")
	fmt.Println("across the wire; partial migration ships only the probe and keeps the")
	fmt.Println("buffer home — the flexibility §6 argues a migration system must expose.")
}
