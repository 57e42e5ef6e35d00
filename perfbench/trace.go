package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"compmig/internal/profile"
)

// span is one traced interval: a run, a pass, a job or a probe. Job
// spans of the traced pass carry the profile counter deltas the job
// produced (counts only: mem.slow's host time is inclusive of nested
// event dispatch and double-counts, so no timing is recorded).
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

func (t *tracer) write(path string, b *bench) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.w.name, b.seed, t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return writeFile(path, data)
}

// counterDelta returns after − before for every nonzero profile count.
func counterDelta(before, after []profile.Stat) map[string]uint64 {
	d := make(map[string]uint64)
	for i, s := range after {
		if n := s.Count - before[i].Count; n != 0 {
			d[s.Name] = n
		}
	}
	return d
}

// gcCounters are the Go runtime's allocation and GC CPU totals.
type gcCounters struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return gcCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// traced measures the per-layer metrics. Untraced passes give the
// reference wall time; one traced pass with profile timing on gives the
// per-job counter deltas; then the layer probes run. Nothing else runs
// while the traced pass does, because profile counters are
// process-global.
func (b *bench) traced() *report {
	rep := newReport(b, 1)
	tr := &tracer{t0: b.start}
	root := tr.begin("run "+b.w.name, 0)

	id := tr.begin("setup", root)
	jobs, warm, _ := setup(b.w, b.seed)
	b.check.record("warmup", jobs[0], warm)
	tr.end(id)

	// Reference passes, untraced, for half the run; the last one also
	// reads the Go runtime's allocation and GC counters.
	id = tr.begin("untraced", root)
	budget := time.Duration(b.seconds) * time.Second / 2
	var walls []float64
	var gcBefore, gcAfter gcCounters
	t0 := time.Now()
	var untraced []passResult
	for len(untraced) == 0 || time.Since(t0) < budget {
		pid := tr.begin(fmt.Sprintf("pass %d", len(untraced)), id)
		gcBefore = readGC()
		p := b.runPass("pass", jobs, nil)
		gcAfter = readGC()
		tr.end(pid)
		untraced = append(untraced, p)
		walls = append(walls, p.wall.Seconds())
	}
	tr.end(id)
	wallU := median(walls)

	// The traced pass.
	id = tr.begin("traced", root)
	profile.Enable(true)
	counts := make(map[string]uint64)
	traced := b.runPass("traced", jobs, func(i int, run func()) {
		jid := tr.begin(jobs[i].label, id)
		before := profile.Snapshot()
		run()
		d := counterDelta(before, profile.Snapshot())
		tr.end(jid)
		tr.spans[jid-1].Counts = d
		for k, v := range d {
			counts[k] += v
		}
	})
	profile.Enable(false)
	tr.end(id)

	// paper-suite: the same ids on one worker, for the pool's speedup.
	var serial passResult
	if !b.w.app {
		id = tr.begin("workers=1", root)
		serial = b.runPass("workers=1", b.w.jobs(b.seed, 1), nil)
		tr.end(id)
	}

	id = tr.begin("probes", root)
	probeNs := runProbes(tr, id)
	tr.end(id)
	tr.end(root)

	b.layerMetrics(rep.metrics, layerInputs{
		untraced: untraced, traced: traced, serial: serial, wallU: wallU,
		counts: counts, probes: probeNs, gc: [2]gcCounters{gcBefore, gcAfter},
	})
	rep.Samples = map[string]int{"untraced_passes": len(untraced), "traced_passes": 1, "probe_batches": probeBatches}
	rep.PassWalls = walls
	rep.Simulated = simulated(b.w, traced)
	rep.TraceFile = filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	if err := tr.write(rep.TraceFile, b); err != nil {
		fail(1, "%v", err)
	}
	return rep
}

type layerInputs struct {
	untraced []passResult
	traced   passResult
	serial   passResult // paper-suite at workers=1
	wallU    float64    // median untraced pass wall, seconds
	counts   map[string]uint64
	probes   map[string]float64
	gc       [2]gcCounters
}

// layerMetrics derives every per-layer metric. An operation is one app
// request on the app workloads and one experiment id on paper-suite.
func (b *bench) layerMetrics(m *metricSet, in layerInputs) {
	c := in.counts
	ops := float64(in.traced.ops())
	wallNs := in.wallU * 1e9
	perOp := func(name, unit string, n uint64) { m.set(name, unit, float64(n)/ops) }

	events := c["engine.heap_pushes"]
	perOp("sim.events_per_op", "count", events)
	if events > 0 {
		m.set("sim.host_ns_per_event", "ns", wallNs/float64(events))
	} else {
		m.markAbsent("sim.host_ns_per_event", "ns", "no simulated events")
	}
	m.set("sim.event_ns", "ns", in.probes["sim.event_ns"])
	m.set("sim.switch_ns", "ns", in.probes["sim.switch_ns"])

	hits, local, slow := c["mem.fast_hits"], c["mem.fast_local"], c["mem.slow"]
	accesses := hits + local + slow
	perOp("mem.accesses_per_op", "count", accesses)
	if accesses > 0 {
		m.set("mem.fast_frac", "ratio", float64(hits+local)/float64(accesses))
	} else {
		m.markAbsent("mem.fast_frac", "ratio", "no shared-memory accesses")
	}
	m.set("mem.hit_ns", "ns", in.probes["mem.hit_ns"])
	m.set("mem.miss_ns", "ns", in.probes["mem.miss_ns"])

	sends := c["net.sends"]
	const sendGap = "net.sends is not counted on the reliable-network path"
	if b.w.reliableNet {
		m.markAbsent("network.sends_per_op", "count", sendGap)
	} else {
		perOp("network.sends_per_op", "count", sends)
	}
	m.set("network.send_ns", "ns", in.probes["network.send_ns"])
	perOp("network.retransmits_per_op", "count", c["fault.retransmits"])

	m.set("msg.ns_per_word", "ns", in.probes["msg.ns_per_word"])

	if in.traced.results[0].messages < 0 {
		m.markAbsent("core.messages_per_op", "count", "the app's Result has no message count")
	} else {
		var messages int64
		for _, r := range in.traced.results {
			messages += r.messages
		}
		m.set("core.messages_per_op", "count", float64(messages)/ops)
	}
	m.set("core.rpc_ns", "ns", in.probes["core.rpc_ns"])
	m.set("core.migrate_ns", "ns", in.probes["core.migrate_ns"])

	perOp("store.appends_per_op", "count", c["store.wal_appends"])
	perOp("store.checkpoint_bytes_per_op", "bytes", c["store.checkpoint_bytes"])
	m.set("store.replay_events", "count", float64(c["store.replay_events"]))
	m.set("store.recovery_cycles", "cycles", float64(c["store.recovery_cycles"]))
	m.set("store.append_ns", "ns", in.probes["store.append_ns"])

	decisions := c["policy.rpc"] + c["policy.cm"] + c["policy.sm"] + c["policy.om"]
	if decisions > 0 {
		m.set("policy.cm_frac", "ratio", float64(c["policy.cm"])/float64(decisions))
		m.set("policy.sm_frac", "ratio", float64(c["policy.sm"])/float64(decisions))
	} else {
		m.markAbsent("policy.cm_frac", "ratio", "static scheme: no policy decisions")
		m.markAbsent("policy.sm_frac", "ratio", "static scheme: no policy decisions")
	}
	m.set("policy.decide_ns", "ns", in.probes["policy.decide_ns"])

	m.set("load.gen_ns_per_event", "ns", in.probes["load.gen_ns_per_event"])
	if b.w.name == "kv-serve" {
		var drain float64
		for _, r := range in.traced.results {
			drain += r.drain
		}
		m.set("load.drain_cycles", "cycles", drain/float64(len(in.traced.results)))
	} else {
		m.markAbsent("load.drain_cycles", "cycles", "closed loop or no generated arrivals visible")
	}

	if !b.w.app {
		m.set("harness.parallel_speedup", "ratio", in.serial.wall.Seconds()/in.wallU)
		var longest float64
		for i := range in.untraced[0].jobTime {
			var t []float64
			for _, p := range in.untraced {
				t = append(t, p.jobTime[i].Seconds())
			}
			longest = max(longest, median(t))
		}
		m.set("harness.longest_id_share", "ratio", longest/in.wallU)
	} else {
		m.markAbsent("harness.parallel_speedup", "ratio", "the harness worker pool is not used")
		m.markAbsent("harness.longest_id_share", "ratio", "the harness worker pool is not used")
	}

	before, after := in.gc[0], in.gc[1]
	perOp("gc.allocs_per_op", "count", after.mallocs-before.mallocs)
	perOp("gc.alloc_bytes_per_op", "bytes", after.bytes-before.bytes)
	if cpu := after.cpu - before.cpu; cpu > 0 {
		m.set("gc.cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/cpu)
	} else {
		m.markAbsent("gc.cpu_frac", "ratio", "no CPU time recorded")
	}

	// Attribution: traced count x probe ns, as a share of the untraced
	// wall. mem's remote-miss probe includes the protocol's own events
	// and sends, which sim and network already claim, so mem's slow
	// accesses are priced at the miss probe minus that overlap.
	share := func(ns float64) float64 { return ns / wallNs }
	simShare := share(float64(events) * in.probes["sim.event_ns"])
	memShare := share(float64(hits)*in.probes["mem.hit_ns"] + float64(local+slow)*memMissSelfNs(in.probes))
	storeShare := share(float64(c["store.wal_appends"]) * in.probes["store.append_ns"])
	policyShare := share(float64(decisions) * in.probes["policy.decide_ns"])
	m.set("sim.est_share", "ratio", simShare)
	m.set("mem.est_share", "ratio", memShare)
	rest := 1 - simShare - memShare - storeShare - policyShare
	if b.w.reliableNet {
		m.markAbsent("network.est_share", "ratio", sendGap)
	} else {
		netShare := share(float64(sends) * in.probes["network.send_ns"])
		m.set("network.est_share", "ratio", netShare)
		rest -= netShare
	}
	m.set("store.est_share", "ratio", storeShare)
	m.set("policy.est_share", "ratio", policyShare)
	m.set("unattributed_share", "ratio", rest)

	m.set("trace.overhead_frac", "ratio", in.traced.wall.Seconds()/in.wallU-1)

	sim := simulated(b.w, in.traced)
	for _, k := range []struct{ name, unit string }{
		{"sim_throughput", "ops/1000cycles"}, {"sim_latency_cycles", "cycles"}, {"sim_words_per_op", "words"},
	} {
		if sim == nil {
			m.markAbsent(k.name, k.unit, "the harness renders tables, not per-operation results")
		} else {
			m.set(k.name, k.unit, sim[k.name])
		}
	}
}
