package sim

import "testing"

// Layer benchmarks for the engine core. Run them with
//
//	go test ./internal/sim -run '^$' -bench . -benchmem
//
// and compare GOMAXPROCS settings with -cpu 1,2.

// BenchmarkThreadSwitch measures one Park/Unpark round trip between two
// threads: ping wakes pong and parks, pong wakes ping and parks. A round
// trip is two thread switches through the dispatch loop; ns/switch
// matches perfbench's sim.switch_ns.
func BenchmarkThreadSwitch(b *testing.B) {
	e := NewEngine(1)
	var ping, pong *Thread
	done := false
	pong = e.Spawn("pong", 0, func(th *Thread) {
		for {
			th.Park("pong")
			if done {
				return
			}
			ping.Unpark()
		}
	})
	ping = e.Spawn("ping", 1, func(th *Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pong.Unpark()
			th.Park("ping")
		}
		b.StopTimer()
		done = true
		pong.Unpark()
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}

// BenchmarkEventDispatch measures Schedule plus the pop and dispatch of
// a trivial event, with 64 far-future events holding the heap at a
// fixed depth.
func BenchmarkEventDispatch(b *testing.B) {
	const depth = 64
	e := NewEngine(1)
	for i := 0; i < depth; i++ {
		e.Schedule(1<<40+Time(i), func() {})
	}
	left := b.N
	var step func()
	step = func() {
		if left--; left > 0 {
			e.Schedule(1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	if err := e.RunUntil(1 << 39); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnExit measures spawning a thread that exits at once, with
// the thread pool warm: each dying thread spawns its successor, so the
// engine alternates between two pooled thread objects and their
// coroutines.
func BenchmarkSpawnExit(b *testing.B) {
	e := NewEngine(1)
	left := b.N
	var body func(*Thread)
	body = func(th *Thread) {
		if left--; left > 0 {
			e.Spawn("w", 0, body)
		}
	}
	e.Spawn("w", 0, body)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
