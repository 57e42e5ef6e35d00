//go:build go1.23

// The build constraint raises this file's language version to go1.23,
// which iter.Pull needs, while go.mod stays at go 1.22: raising the
// module's go line would force the same raise on the analysis fixture
// module and on the perfbench module.

package sim

import (
	"fmt"
	"iter"
)

// Thread is a simulated lightweight thread (in the sense of a threads
// package, per the paper's footnote 1 — heavier than TAM threads). Each
// Thread is an iter.Pull coroutine that only the engine's dispatch loop
// resumes, and blocking is a yield back to that loop, so exactly one
// thread runs at a time and thread bodies may freely touch shared
// simulation state.
//
// Thread objects (and their coroutines) are pooled: once a body returns,
// the engine recycles the thread for a later Spawn. Retain the handle
// only while the thread is live; an exited thread's object may already
// be running an unrelated body.
type Thread struct {
	eng   *Engine
	id    int
	name  string
	body  func(*Thread) // body to run when the spawned thread is first resumed
	state threadState
	where string // description of the blocking site, for deadlock reports

	// next resumes the coroutine until its next park or exit; yield, held
	// by the coroutine itself, suspends it back into next's caller; stop
	// ends a pooled coroutine for good.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// stream is the event stream the thread's wakeups execute as: the
	// processor the thread is bound to on a clustered engine (set by
	// Proc.Spawn), or the spawner's ambient stream. Zero and unused on a
	// serial engine.
	stream int32

	// scratch is the future handed out by ScratchFuture.
	scratch Future
}

type threadState int

const (
	threadRunnable threadState = iota
	threadRunning
	threadParked
	threadDone
)

// Spawn creates a simulated thread that begins executing body at time
// e.Now()+delay. The body runs under engine control; it must only interact
// with the simulation through the Thread it receives.
func (e *Engine) Spawn(name string, delay Time, body func(*Thread)) *Thread {
	return e.spawnAt(name, delay, body, e.curStream)
}

// spawnAt is Spawn with an explicit stream binding: the thread's wakeup
// events execute as stream (processor id on a clustered engine).
func (e *Engine) spawnAt(name string, delay Time, body func(*Thread), stream int32) *Thread {
	e.nextTID++
	var th *Thread
	if n := len(e.threadPool); n > 0 {
		th = e.threadPool[n-1]
		e.threadPool[n-1] = nil
		e.threadPool = e.threadPool[:n-1]
	} else {
		select {
		case th = <-idleThreads:
			th.eng = e
		default:
			th = &Thread{eng: e}
			th.next, th.stop = iter.Pull(th.loop)
		}
	}
	th.id, th.name, th.body = e.nextTID, name, body
	th.state, th.where = threadRunnable, ""
	th.stream = stream
	e.liveThreads++
	e.allThreads[th] = struct{}{}
	e.scheduleWake(e.now+delay, th)
	return th
}

// idleThreads holds retired threads, coroutines included, that any
// engine's Spawn may reuse once the engine that ran them has returned.
// Engines come and go by the thousand in a sweep, and with go1.24's race
// detector an ended coroutine never frees its race state (about 5 KB
// each), so reusing coroutines across engines keeps race-enabled test
// runs from growing without bound. A channel hands threads between the
// harness workers' goroutines race-free. The capacity covers the
// largest sweep point (about 1,250 live threads in scale) on a few
// workers at once; threads that do not fit are stopped.
var idleThreads = make(chan *Thread, 4096)

// loop is the coroutine behind a Thread for its whole pooled lifetime:
// run the pending body, retire into the pool, yield until the engine
// resumes it with a new body, repeat. A stopped yield is drainThreadPool
// ending the coroutine.
func (th *Thread) loop(yield func(struct{}) bool) {
	th.yield = yield
	for {
		body := th.body
		th.body = nil
		th.state = threadRunning
		body(th)
		th.exit()
		if !yield(struct{}{}) {
			return
		}
	}
}

// exit retires the thread: it must be the engine's current runner, and
// Engine.current is cleared rather than left pointing at a dead thread.
// The object goes back to the spawn pool; its coroutine survives in loop.
func (th *Thread) exit() {
	e := th.eng
	if e.current != th {
		panic("sim: thread exiting while not the current runner")
	}
	th.state = threadDone
	th.where = "exited"
	e.liveThreads--
	delete(e.allThreads, th)
	e.threadPool = append(e.threadPool, th)
	e.current = nil
}

// Engine returns the engine this thread belongs to.
func (th *Thread) Engine() *Engine { return th.eng }

// ID returns the thread's unique id (1-based, in spawn order).
func (th *Thread) ID() int { return th.id }

// Name returns the name given at spawn.
func (th *Thread) Name() string { return th.name }

// Now returns the current simulated time.
func (th *Thread) Now() Time { return th.eng.now }

func (th *Thread) String() string {
	return fmt.Sprintf("%s#%d@%s", th.name, th.id, th.where)
}

// ScratchFuture resets and returns a future owned by the thread, for
// rendezvous whose lifetimes never overlap (e.g. one demand miss at a
// time): each call invalidates the value of the previous one. Callers
// that can have several in flight must allocate their own futures.
func (th *Thread) ScratchFuture() *Future {
	th.scratch.Reset()
	return &th.scratch
}

// park blocks the thread until some event resumes it: it yields back to
// the dispatch loop, which resumes it when its wakeup event pops. The
// caller must have arranged for a wakeup.
func (th *Thread) park(where string) {
	e := th.eng
	if e.current != th {
		panic("sim: park called from a thread that is not running")
	}
	th.state = threadParked
	th.where = where
	e.current = nil
	th.yield(struct{}{})
	th.state = threadRunning
	th.where = ""
}

// Park blocks the thread indefinitely; it runs again only when another
// party calls Unpark. The where string labels the block site in deadlock
// reports.
func (th *Thread) Park(where string) { th.park(where) }

// Unpark schedules th to resume at the current time. It must only be
// called for a thread that is parked (or about to park within the current
// event); the engine's single-runner discipline makes this race-free.
func (th *Thread) Unpark() {
	th.eng.scheduleWake(th.eng.now, th)
}

// UnparkAt schedules th to resume after delay cycles.
func (th *Thread) UnparkAt(delay Time) {
	th.eng.scheduleWake(th.eng.now+delay, th)
}

// Sleep advances the thread's virtual time by d cycles without occupying
// any processor (used for "think time" in the paper's workloads). When no
// other event fires at or before the wakeup time, the thread advances the
// clock itself and keeps running, skipping the park/resume round trip.
func (th *Thread) Sleep(d Time) {
	if d == 0 {
		return
	}
	if th.eng.fastAdvance(th.eng.now + d) {
		return
	}
	th.eng.scheduleWake(th.eng.now+d, th)
	th.park("sleep")
}

// Yield reschedules the thread at the current time behind already-queued
// events. When no event is queued at the current time, it is a no-op.
func (th *Thread) Yield() {
	if th.eng.fastAdvance(th.eng.now) {
		return
	}
	th.eng.scheduleWake(th.eng.now, th)
	th.park("yield")
}
