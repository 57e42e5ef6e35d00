package core

import (
	"fmt"

	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
)

// Call invokes an instance method on object g, blocking until the reply
// arrives, and decodes the result into out (which may be nil). A local
// call dispatches directly with no messaging cost; a remote call takes
// the full client-stub / server-stub path of §2.1 — two messages per
// access, which is exactly what makes RPC lose to computation migration
// on repeated remote accesses.
func (t *Task) Call(g gid.GID, method MethodID, args msg.Marshaler, out msg.Unmarshaler) error {
	if int(method) >= len(t.rt.methods) {
		panic(fmt.Sprintf("core: unknown method id %d", method))
	}
	ent := &t.rt.methods[method]
	var argWords []uint32
	if args != nil {
		argWords = msg.Encode(args)
	}

	if t.IsLocal(g) {
		// Local call: run the handler inline on this thread. The words
		// round-trip through the codec for a single code path, but no
		// marshal cycles are charged — a local call passes arguments in
		// registers.
		return t.dispatchLocal(g, ent, argWords, out)
	}

	rt := t.rt
	rt.Col.RPCCalls++
	if ent.short {
		rt.Col.ShortCalls++
	}
	id, fut := rt.newReply()
	w := msg.NewWriter(4 + len(argWords))
	w.PutU32(uint32(method))
	w.PutU64(uint64(g))
	w.PutU32(packLinkage(t.proc.ID(), id))
	w.PutRaw(argWords)
	payload := w.Words()
	words := uint64(len(payload)) + network.HeaderWords

	t.th.Exec(t.proc, rt.chargeSend(words))
	rt.Net.SendGuarded(&network.Message{Src: t.proc.ID(), Dst: rt.locate(t.proc.ID(), g), Kind: "rpc", Payload: payload},
		rt.deliverRPC, rt.guard(id))

	reply, err := waitWords(fut, t.th)
	if err != nil {
		return err
	}
	if rt.Obs != nil {
		rt.Obs.RemoteCall(t.proc.ID(), g, len(payload), len(reply), ent.short)
	}
	// Piggybacked location information: the reply tells the caller where
	// the object really was.
	rt.learn(t.proc.ID(), g, rt.Objects.Home(g))
	if out == nil {
		return nil
	}
	return msg.Decode(reply, out)
}

func (t *Task) dispatchLocal(g gid.GID, ent *methodEntry, argWords []uint32, out msg.Unmarshaler) error {
	self := t.rt.Objects.State(g)
	r := msg.NewReader(argWords)
	w := msg.NewWriter(4)
	sub := &Task{rt: t.rt, th: t.th, proc: t.proc, isMethod: true}
	ent.handler(sub, self, r, w)
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: method %s argument decode: %w", ent.name, err)
	}
	if out == nil {
		return nil
	}
	return msg.Decode(w.Words(), out)
}

// deliverRPC is the server stub: it charges the receive path on the
// object's home processor, runs the handler (in a fresh handler thread,
// unless the method is short and takes the active-message fast path), and
// sends the reply back.
func (rt *Runtime) deliverRPC(m *network.Message) {
	dst := rt.Mach.Proc(m.Dst)
	r := msg.NewReader(m.Payload)
	method := MethodID(r.U32())
	g := gid.GID(r.U64())
	if actual := rt.Objects.Home(g); actual != m.Dst {
		rt.forward(m, actual, rt.deliverRPC)
		return
	}
	callerProc, replyID := unpackLinkage(r.U32())
	argWords := make([]uint32, r.Remaining())
	copy(argWords, m.Payload[len(m.Payload)-len(argWords):])
	ent := &rt.methods[method]

	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecv(words, ent.short)

	runHandler := func(th *sim.Thread) {
		self := rt.Objects.State(g)
		args := msg.NewReader(argWords)
		reply := msg.NewWriter(4)
		task := &Task{rt: rt, th: th, proc: dst, isMethod: true, atBase: true}
		ent.handler(task, self, args, reply)
		rt.sendReply(task, callerProc, replyID, reply.Words())
	}

	dst.ExecAsync(overhead, func() {
		// Both paths run on a simulated thread so handlers can block on
		// locks or charge work; the cost difference (thread creation) was
		// applied in chargeRecv.
		rt.Eng.Spawn("handler:"+ent.name, 0, runHandler)
	})
}

// sendReply returns a method result to the caller, or completes the
// future directly when the caller is co-located.
func (rt *Runtime) sendReply(t *Task, callerProc int, replyID uint32, resultWords []uint32) {
	if callerProc == t.proc.ID() {
		rt.completeReply(replyID, resultWords)
		return
	}
	w := msg.NewWriter(1 + len(resultWords))
	w.PutU32(replyID)
	w.PutRaw(resultWords)
	payload := w.Words()
	words := uint64(len(payload)) + network.HeaderWords
	t.th.Exec(t.proc, rt.chargeSend(words))
	rt.Net.SendGuarded(&network.Message{Src: t.proc.ID(), Dst: callerProc, Kind: "reply", Payload: payload},
		rt.deliverReply, rt.guard(replyID))
}
