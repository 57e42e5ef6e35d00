package profile_test

import (
	"strings"
	"testing"
	"time"

	"compmig/internal/network"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

func TestSectionAccounting(t *testing.T) {
	var s profile.Section
	s.Add(3)
	if c, ns := s.Count.Load(), s.Ns.Load(); c != 3 || ns != 0 {
		t.Fatalf("Add(3): count=%d ns=%d, want 3 and 0", c, ns)
	}
	s.AddTimed(2, 5*time.Microsecond)
	if c, ns := s.Count.Load(), s.Ns.Load(); c != 5 || ns != 5000 {
		t.Fatalf("AddTimed(2, 5us): count=%d ns=%d, want 5 and 5000", c, ns)
	}

	var timed profile.Section
	stop := timed.Time(4)
	time.Sleep(time.Millisecond)
	stop()
	if c, ns := timed.Count.Load(), timed.Ns.Load(); c != 4 || ns < int64(time.Millisecond) {
		t.Fatalf("Time(4) around a 1ms sleep: count=%d ns=%d, want 4 and >= 1e6", c, ns)
	}

	var nsOnly profile.Section
	stop = nsOnly.TimeNs()
	time.Sleep(time.Millisecond)
	stop()
	if c, ns := nsOnly.Count.Load(), nsOnly.Ns.Load(); c != 0 || ns < int64(time.Millisecond) {
		t.Fatalf("TimeNs around a 1ms sleep: count=%d ns=%d, want 0 and >= 1e6", c, ns)
	}
}

// TestGatedSectionsRecordOnlyWhileEnabled drives the two hot-path
// sections that are gated on Enabled — event-heap pushes and timed
// network sends — and checks that neither moves while profiling is off.
func TestGatedSectionsRecordOnlyWhileEnabled(t *testing.T) {
	defer profile.Enable(profile.Enabled())
	send := func() {
		eng := sim.NewEngine(1)
		net := network.New(eng, network.Crossbar{}, stats.NewCollector(), 17, 0)
		net.Send(&network.Message{Src: 0, Dst: 1, Kind: "probe"}, func(*network.Message) {})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}

	profile.Enable(false)
	if profile.Enabled() {
		t.Fatal("Enabled() after Enable(false)")
	}
	heap, sends, sendNs := profile.HeapOps.Count.Load(), profile.NetSends.Count.Load(), profile.NetSends.Ns.Load()
	send()
	if d := profile.HeapOps.Count.Load() - heap; d != 0 {
		t.Errorf("disabled: heap pushes moved by %d", d)
	}
	if d := profile.NetSends.Count.Load() - sends; d != 0 {
		t.Errorf("disabled: net sends moved by %d", d)
	}
	if d := profile.NetSends.Ns.Load() - sendNs; d != 0 {
		t.Errorf("disabled: net send time moved by %d ns", d)
	}

	profile.Enable(true)
	if !profile.Enabled() {
		t.Fatal("!Enabled() after Enable(true)")
	}
	heap, sends, sendNs = profile.HeapOps.Count.Load(), profile.NetSends.Count.Load(), profile.NetSends.Ns.Load()
	send()
	if d := profile.HeapOps.Count.Load() - heap; d != 1 {
		t.Errorf("enabled: heap pushes moved by %d, want 1 (the delivery event)", d)
	}
	if d := profile.NetSends.Count.Load() - sends; d != 1 {
		t.Errorf("enabled: net sends moved by %d, want 1", d)
	}
	if d := profile.NetSends.Ns.Load() - sendNs; d < 0 {
		t.Errorf("enabled: net send time went backwards by %d ns", -d)
	}
}

func TestSnapshotListsEverySection(t *testing.T) {
	snap := profile.Snapshot()
	want := []string{
		"mem.fast_hits", "mem.fast_local", "mem.slow", "net.sends", "engine.heap_pushes",
		"policy.rpc", "policy.cm", "policy.sm", "policy.om",
		"fault.drops", "fault.dups", "fault.retransmits", "fault.timeouts", "fault.giveups",
		"store.wal_appends", "store.checkpoint_bytes", "store.replay_events", "store.recovery_cycles",
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d sections, want %d", len(snap), len(want))
	}
	for i, s := range snap {
		if s.Name != want[i] {
			t.Errorf("section %d is %q, want %q", i, s.Name, want[i])
		}
	}

	// Report lists every section once, under a header, and reports
	// deltas against an earlier snapshot.
	profile.StoreReplays.Add(7)
	lines := strings.Split(strings.TrimSuffix(profile.Report(snap), "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("report has %d lines, want a header plus %d sections:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, name := range want {
		fields := strings.Fields(lines[i+1])
		if len(fields) != 3 || fields[0] != name {
			t.Fatalf("report line %d = %q, want section %q", i+1, lines[i+1], name)
		}
		if name == "store.replay_events" && fields[1] != "7" {
			t.Errorf("store.replay_events delta = %s, want 7", fields[1])
		}
	}
}
