package core

import (
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Object mobility — the Emerald-style mechanism the paper wanted to
// compare against ("our group has not finished implementing object
// migration in Prelude yet", §4). Objects can relocate; senders address
// messages at their last known location, and a message that arrives
// where the object no longer lives is forwarded — which is what the
// Table 5 "forwarding check" on every receive path is for.

// locate returns proc's best guess of g's home: a learned location if
// one is cached, the birth processor otherwise.
func (rt *Runtime) locate(proc int, g gid.GID) int {
	if hints := rt.locHints[proc]; hints != nil {
		if h, ok := hints[g]; ok {
			return h
		}
	}
	return g.Home()
}

// learn records a location hint for proc (piggybacked on replies and
// completed pulls in a real system).
func (rt *Runtime) learn(proc int, g gid.GID, home int) {
	if home == g.Home() {
		if hints := rt.locHints[proc]; hints != nil {
			delete(hints, g)
		}
		return
	}
	if rt.locHints[proc] == nil {
		rt.locHints[proc] = make(map[gid.GID]int)
	}
	rt.locHints[proc][g] = home
}

// forward re-sends a message that arrived at a stale location toward the
// object's current home, charging the forwarding path on the stale
// processor.
func (rt *Runtime) forward(m *network.Message, actual int, arrive func(*network.Message)) {
	rt.Col.Forwards++
	stale := rt.Mach.Proc(m.Dst)
	cost := rt.Model.ForwardingCheck + rt.Model.MessageSend
	rt.Col.AddCycles(stats.CatForwardingCheck, rt.Model.ForwardingCheck)
	rt.Col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
	stale.ExecAsync(cost, func() {
		rt.Net.Send(&network.Message{Src: m.Dst, Dst: actual, Kind: m.Kind, Payload: m.Payload}, arrive)
	})
}

// PullObject relocates object g to the calling task's processor —
// whole-object data migration without replication, as in Emerald. The
// object's state (stateWords on the wire) travels in one message after
// a fetch request; subsequent accesses from this processor are local
// until someone else pulls the object away. No-op when already local.
// The error is non-nil only when a fault plan is active and the
// recovery protocol gave up on the fetch (a *fault.GiveUpError).
func (t *Task) PullObject(g gid.GID, stateWords uint64) error {
	rt := t.rt
	if rt.Objects.Home(g) == t.proc.ID() {
		return nil
	}
	id, fut := rt.newReply()
	w := msg.NewWriter(5)
	w.PutU64(uint64(g))
	w.PutU32(packLinkage(t.proc.ID(), id))
	w.PutU32(uint32(stateWords))
	payload := w.Words()
	words := uint64(len(payload)) + network.HeaderWords

	t.th.Exec(t.proc, rt.chargeSend(words))
	rt.Net.SendGuarded(&network.Message{Src: t.proc.ID(), Dst: rt.locate(t.proc.ID(), g), Kind: "obj-fetch", Payload: payload},
		rt.deliverFetch, rt.guard(id))
	if _, err := waitWords(fut, t.th); err != nil {
		return err
	}
	if rt.Obs != nil {
		rt.Obs.ObjectPull(t.proc.ID(), g, int(stateWords))
	}
	rt.learn(t.proc.ID(), g, t.proc.ID())
	return nil
}

// deliverFetch handles an object-fetch at (what the sender believed was)
// the object's home: forward if the object moved on, wait out the pin
// if the object is in transit or just arrived (Emerald pins an object
// while an invocation runs on it, which also prevents two pullers
// live-locking by stealing it back and forth before either touches it),
// and otherwise ship the object's state to the requester.
func (rt *Runtime) deliverFetch(m *network.Message) {
	r := msg.NewReader(m.Payload)
	g := gid.GID(r.U64())
	requester, replyID := unpackLinkage(r.U32())
	stateWords := uint64(r.U32())

	actual := rt.Objects.Home(g)
	if actual != m.Dst {
		rt.forward(m, actual, rt.deliverFetch)
		return
	}
	if tr := rt.moving[g]; tr != nil {
		tr.waiting = append(tr.waiting, m)
		return
	}
	if until, pinned := rt.pins[g]; pinned && until > rt.Eng.Now() {
		rt.Eng.Schedule(until-rt.Eng.Now(), func() { rt.deliverFetch(m) })
		return
	}
	here := rt.Mach.Proc(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecv(words, true)
	here.ExecAsync(overhead, func() {
		// Move now: accesses racing in behind us forward to the new home.
		// The object is pinned for PinCycles and for as long as it is in
		// transit, so its new holder gets to use it.
		rt.Objects.Move(g, requester)
		rt.pins[g] = rt.Eng.Now() + rt.PinCycles
		tr := rt.moving[g]
		if tr == nil {
			tr = &transit{}
			rt.moving[g] = tr
		}
		tr.inFlight++
		w := msg.NewWriter(int(stateWords) + 3)
		w.PutU32(replyID)
		w.PutU64(uint64(g))
		w.PutRaw(make([]uint32, stateWords))
		payload := w.Words()
		outWords := uint64(len(payload)) + network.HeaderWords
		rt.Col.AddCycles(stats.CatMarshal, rt.Model.Marshal(outWords))
		rt.Col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
		here.ExecAsync(rt.Model.Marshal(outWords)+rt.Model.MessageSend, func() {
			rt.Net.SendGuarded(&network.Message{Src: m.Dst, Dst: requester, Kind: "obj-move", Payload: payload},
				rt.deliverObject, rt.guard(replyID))
		})
	})
}

// transit tracks an object whose state is on the wire: the obj-move
// messages in flight (two fetches accepted in the same receive window
// both ship it) and the fetches that reached it meanwhile.
type transit struct {
	inFlight int
	waiting  []*network.Message
}

// deliverObject installs a moved object at its new home and wakes the
// puller. When the last obj-move in flight lands, the fetches that
// reached the object in transit retry once the pin expires, in arrival
// order, and never before the woken puller has run. An obj-move transit
// can outlast PinCycles; without the transit pin the next puller could
// take the object in flight, before its holder touched it, and pullers
// could livelock.
func (rt *Runtime) deliverObject(m *network.Message) {
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvReply(words)
	rt.Mach.Proc(m.Dst).ExecAsync(overhead, func() {
		r := msg.NewReader(m.Payload)
		id := r.U32()
		g := gid.GID(r.U64())
		rt.completeReply(id, nil)
		tr := rt.moving[g]
		if tr.inFlight--; tr.inFlight > 0 {
			return
		}
		delete(rt.moving, g)
		var wait sim.Time
		if until := rt.pins[g]; until > rt.Eng.Now() {
			wait = until - rt.Eng.Now()
		}
		for _, fm := range tr.waiting {
			rt.Eng.Schedule(wait, func() { rt.deliverFetch(fm) })
		}
	})
}
