// Package profile collects host-side (wall clock, not simulated)
// per-subsystem counters so the simulator's own performance is
// observable: how often each fast path fires, how much protocol work
// still takes the event-driven slow path, and where host nanoseconds go.
//
// Most counts are cheap and collected unconditionally — subsystems
// either increment a process-wide atomic directly or batch per-run
// tallies and flush them once (see internal/mem). Nanosecond timing is
// only recorded while Enable(true) is in effect (the paperfigs -profile
// flag), because calling time.Now around hot paths is itself a
// measurable cost. Two sections are timing-gated as a whole, counts
// included: net.sends (NetSends) and engine.heap_pushes (HeapOps) sit on
// the hottest paths, so they record nothing unless timing is enabled.
package profile

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns nanosecond timing on or off process-wide.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether timing is being collected.
func Enabled() bool { return enabled.Load() }

// Section is one profiled subsystem entry point.
type Section struct {
	Count atomic.Uint64
	Ns    atomic.Int64
}

// Add records n entries.
func (s *Section) Add(n uint64) { s.Count.Add(n) }

// AddTimed records n entries that took d of host time.
func (s *Section) AddTimed(n uint64, d time.Duration) {
	s.Count.Add(n)
	s.Ns.Add(d.Nanoseconds())
}

// Time starts a host-time measurement and returns the stop function that
// records n entries with the elapsed time; the intended use is
// `defer sec.Time(1)()`. Keeping the time.Now calls inside this package
// is part of the simvet nodeterminism contract: simulation-charged
// packages never touch the host clock directly, they only bracket a
// region with a profile timer that is inert (and cheap) unless the
// -profile flag enabled timing. Host timing can never perturb simulated
// event order either way — it observes the run, the event heap orders it.
func (s *Section) Time(n uint64) func() {
	start := time.Now()
	return func() { s.AddTimed(n, time.Since(start)) }
}

// TimeNs is Time for call sites that batch their counts separately: the
// stop function adds only the elapsed nanoseconds.
func (s *Section) TimeNs() func() {
	start := time.Now()
	return func() { s.Ns.Add(time.Since(start).Nanoseconds()) }
}

// The profiled sections. Mem counts are line-granularity accesses; the
// slow-path timing is inclusive — a blocked access's timer keeps running
// while its thread is parked and the dispatch loop runs other events, so
// overlapping slow accesses double-count wall time. Use the counts for
// exact attribution and the timings for relative weight.
var (
	MemFastHits  Section // accesses satisfied by the inline all-hit path
	MemFastLocal Section // misses completed inline at the home module
	MemSlow      Section // accesses through the event-driven protocol
	NetSends     Section // messages injected into the simulated network
	HeapOps      Section // event-heap pushes
	PolicyRPC    Section // policy decisions that chose RPC
	PolicyCM     Section // policy decisions that chose computation migration
	PolicySM     Section // policy decisions that chose shared memory
	PolicyOM     Section // policy decisions that chose object migration

	FaultDrops       Section // injected message losses (incl. crash windows, acks)
	FaultDups        Section // injected message duplications
	FaultRetransmits Section // reliability-layer retransmissions
	FaultTimeouts    Section // retransmission timer firings
	FaultGiveUps     Section // messages abandoned after the attempt budget

	StoreAppends         Section // WAL records appended
	StoreCheckpointBytes Section // bytes written by checkpoint folds
	StoreReplays         Section // records re-applied during crash recovery
	StoreRecoveryCycles  Section // simulated cycles spent restoring + replaying
)

// Stat is one row of a snapshot.
type Stat struct {
	Name  string
	Count uint64
	Ns    int64
}

// Snapshot returns the current totals in a fixed order.
func Snapshot() []Stat {
	return []Stat{
		{"mem.fast_hits", MemFastHits.Count.Load(), MemFastHits.Ns.Load()},
		{"mem.fast_local", MemFastLocal.Count.Load(), MemFastLocal.Ns.Load()},
		{"mem.slow", MemSlow.Count.Load(), MemSlow.Ns.Load()},
		{"net.sends", NetSends.Count.Load(), NetSends.Ns.Load()},
		{"engine.heap_pushes", HeapOps.Count.Load(), HeapOps.Ns.Load()},
		{"policy.rpc", PolicyRPC.Count.Load(), PolicyRPC.Ns.Load()},
		{"policy.cm", PolicyCM.Count.Load(), PolicyCM.Ns.Load()},
		{"policy.sm", PolicySM.Count.Load(), PolicySM.Ns.Load()},
		{"policy.om", PolicyOM.Count.Load(), PolicyOM.Ns.Load()},
		{"fault.drops", FaultDrops.Count.Load(), FaultDrops.Ns.Load()},
		{"fault.dups", FaultDups.Count.Load(), FaultDups.Ns.Load()},
		{"fault.retransmits", FaultRetransmits.Count.Load(), FaultRetransmits.Ns.Load()},
		{"fault.timeouts", FaultTimeouts.Count.Load(), FaultTimeouts.Ns.Load()},
		{"fault.giveups", FaultGiveUps.Count.Load(), FaultGiveUps.Ns.Load()},
		{"store.wal_appends", StoreAppends.Count.Load(), StoreAppends.Ns.Load()},
		{"store.checkpoint_bytes", StoreCheckpointBytes.Count.Load(), StoreCheckpointBytes.Ns.Load()},
		{"store.replay_events", StoreReplays.Count.Load(), StoreReplays.Ns.Load()},
		{"store.recovery_cycles", StoreRecoveryCycles.Count.Load(), StoreRecoveryCycles.Ns.Load()},
	}
}

// Report formats totals (optionally deltas against a prior snapshot from
// the same process) as an aligned table.
func Report(since []Stat) string {
	cur := Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %12s\n", "section", "count", "host ms")
	for i, s := range cur {
		count, ns := s.Count, s.Ns
		if since != nil {
			count -= since[i].Count
			ns -= since[i].Ns
		}
		fmt.Fprintf(&b, "%-20s %12d %12.1f\n", s.Name, count, float64(ns)/1e6)
	}
	return b.String()
}
