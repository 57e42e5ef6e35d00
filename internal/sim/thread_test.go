package sim

import (
	"errors"
	"runtime"
	"testing"
)

type bodyPanic struct{ where string }

// TestThreadPanicSurfacesFromRun asserts a panic inside a thread body
// unwinds out of Engine.Run on the caller's goroutine with its original
// value, both before the thread's first park and after a resume.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	for _, parkFirst := range []bool{false, true} {
		want := bodyPanic{where: "body"}
		e := NewEngine(1)
		e.Spawn("other", 0, func(th *Thread) { th.Sleep(5) })
		e.Spawn("boom", 0, func(th *Thread) {
			if parkFirst {
				th.Sleep(10)
			}
			panic(want)
		})
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Run()
			return nil
		}()
		if got != want {
			t.Fatalf("parkFirst=%v: Run panicked with %#v, want %#v", parkFirst, got, want)
		}
	}
}

// TestRetiredThreadsLeaveNoGoroutines asserts that retired threads do
// not outlive their engine's Run beyond the idleThreads cache: engine
// after engine reuses the same coroutines, and the threads that do not
// fit in the cache have their coroutines ended.
func TestRetiredThreadsLeaveNoGoroutines(t *testing.T) {
	run := func(threads int) {
		e := NewEngine(1)
		for j := 0; j < threads; j++ {
			e.Spawn("w", Time(j%4), func(th *Thread) { th.Sleep(Time(1 + j%3)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run(16)
	base, idle := runtime.NumGoroutine(), len(idleThreads)
	for i := 0; i < 1000; i++ {
		run(16)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 1000 more engines, %d after the first", n, base)
	}
	run(cap(idleThreads) + 64)
	if n, limit := runtime.NumGoroutine(), base-idle+cap(idleThreads); n > limit {
		t.Fatalf("%d goroutines after overflowing the idle cache, want at most %d", n, limit)
	}
}

// TestMaxEventsStopsParkedPingPong asserts the runaway guard still
// surfaces as a *MaxEventsError when the events are wakeups of threads
// parked in the dispatch loop: an endless park/unpark ping-pong.
// (TestDeadlockDetection covers a parked thread nobody wakes.)
func TestMaxEventsStopsParkedPingPong(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 1000
	var ping, pong *Thread
	pong = e.Spawn("pong", 0, func(th *Thread) {
		for {
			th.Park("pong")
			ping.Unpark()
		}
	})
	ping = e.Spawn("ping", 1, func(th *Thread) {
		for {
			pong.Unpark()
			th.Park("ping")
		}
	})
	var me *MaxEventsError
	if err := e.Run(); !errors.As(err, &me) || me.Max != 1000 {
		t.Fatalf("got %v, want *MaxEventsError at 1000", err)
	}
}
