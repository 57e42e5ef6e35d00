// Benchmarks: one per table and figure in the paper's evaluation
// section. Each benchmark runs the corresponding experiment end to end
// and reports the paper's metric (requests or ops per 1000 simulated
// cycles; words per 10 cycles) via b.ReportMetric, so `go test -bench`
// regenerates the paper's numbers alongside wall-clock costs.
//
// The -quick-scale windows are used so a full -bench=. run stays fast;
// cmd/paperfigs produces the full-scale tables.
package compmig

import (
	"testing"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/harness"
	"compmig/internal/model"
	"compmig/internal/sim"
)

func countnetConfig(scheme core.Scheme, threads int, think uint64) countnet.Config {
	return countnet.Config{
		Threads: threads, Think: think, Scheme: scheme,
		Warmup: 10000, Measure: 60000,
	}
}

func btreeConfig(scheme core.Scheme, think uint64) btree.Config {
	return btree.Config{
		Scheme: scheme, Think: think,
		Warmup: 10000, Measure: 60000,
	}
}

// BenchmarkFig1MessageModel reproduces Figure 1: the §2.5 message-count
// model, cross-validated against the simulator inside the harness.
func BenchmarkFig1MessageModel(b *testing.B) {
	var last int
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 16; m++ {
			last = model.Messages(model.RPC, 2, m) +
				model.Messages(model.DataMigration, 2, m) +
				model.Messages(model.ComputationMigration, 2, m)
		}
	}
	b.ReportMetric(float64(last), "msgs_at_m16")
	b.ReportMetric(float64(model.Messages(model.ComputationMigration, 2, 16)), "cm_msgs_m16")
}

// BenchmarkFig2CountnetThroughput reproduces Figure 2's throughput
// curves: counting network requests/1000 cycles per scheme.
func BenchmarkFig2CountnetThroughput(b *testing.B) {
	for _, s := range []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, HWMessaging: true},
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC, HWMessaging: true},
		{Mechanism: core.RPC},
	} {
		for _, think := range []uint64{0, 10000} {
			name := s.Name() + "/think=" + itoa(think)
			b.Run(name, func(b *testing.B) {
				var r countnet.Result
				for i := 0; i < b.N; i++ {
					r = countnet.RunExperiment(countnetConfig(s, 32, think))
				}
				b.ReportMetric(r.Throughput, "req/1000cyc")
			})
		}
	}
}

// BenchmarkFig3CountnetBandwidth reproduces Figure 3's bandwidth curves:
// words/10 cycles per scheme.
func BenchmarkFig3CountnetBandwidth(b *testing.B) {
	for _, s := range []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			var r countnet.Result
			for i := 0; i < b.N; i++ {
				r = countnet.RunExperiment(countnetConfig(s, 32, 0))
			}
			b.ReportMetric(r.Bandwidth, "words/10cyc")
		})
	}
}

var table12Schemes = []core.Scheme{
	{Mechanism: core.SharedMem},
	{Mechanism: core.RPC},
	{Mechanism: core.RPC, HWMessaging: true},
	{Mechanism: core.RPC, Replication: true},
	{Mechanism: core.RPC, Replication: true, HWMessaging: true},
	{Mechanism: core.Migrate},
	{Mechanism: core.Migrate, HWMessaging: true},
	{Mechanism: core.Migrate, Replication: true},
	{Mechanism: core.Migrate, Replication: true, HWMessaging: true},
}

// BenchmarkTable1BtreeThroughput reproduces Table 1: B-tree throughput
// at zero think time for all nine schemes.
func BenchmarkTable1BtreeThroughput(b *testing.B) {
	for _, s := range table12Schemes {
		b.Run(s.Name(), func(b *testing.B) {
			var r btree.Result
			for i := 0; i < b.N; i++ {
				r = btree.RunExperiment(btreeConfig(s, 0))
			}
			b.ReportMetric(r.Throughput, "ops/1000cyc")
		})
	}
}

// BenchmarkTable2BtreeBandwidth reproduces Table 2: B-tree bandwidth at
// zero think time.
func BenchmarkTable2BtreeBandwidth(b *testing.B) {
	for _, s := range table12Schemes {
		b.Run(s.Name(), func(b *testing.B) {
			var r btree.Result
			for i := 0; i < b.N; i++ {
				r = btree.RunExperiment(btreeConfig(s, 0))
			}
			b.ReportMetric(r.Bandwidth, "words/10cyc")
		})
	}
}

var table34Schemes = []core.Scheme{
	{Mechanism: core.SharedMem},
	{Mechanism: core.Migrate, Replication: true},
	{Mechanism: core.Migrate, Replication: true, HWMessaging: true},
}

// BenchmarkTable3BtreeLowContention reproduces Table 3: B-tree
// throughput at 10000-cycle think time.
func BenchmarkTable3BtreeLowContention(b *testing.B) {
	for _, s := range table34Schemes {
		b.Run(s.Name(), func(b *testing.B) {
			var r btree.Result
			for i := 0; i < b.N; i++ {
				r = btree.RunExperiment(btreeConfig(s, 10000))
			}
			b.ReportMetric(r.Throughput, "ops/1000cyc")
		})
	}
}

// BenchmarkTable4BtreeLowContentionBW reproduces Table 4: B-tree
// bandwidth at 10000-cycle think time.
func BenchmarkTable4BtreeLowContentionBW(b *testing.B) {
	for _, s := range table34Schemes {
		b.Run(s.Name(), func(b *testing.B) {
			var r btree.Result
			for i := 0; i < b.N; i++ {
				r = btree.RunExperiment(btreeConfig(s, 10000))
			}
			b.ReportMetric(r.Bandwidth, "words/10cyc")
		})
	}
}

// BenchmarkTable5MigrationBreakdown reproduces Table 5: the per-category
// cycle breakdown of one migration in the counting network.
func BenchmarkTable5MigrationBreakdown(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		tb := harness.Table5(harness.Options{Quick: true})
		total = parseLeadingFloat(tb.Rows[0][1])
	}
	b.ReportMetric(total, "cycles/migration")
}

// BenchmarkSmallNodeBtree reproduces the §4.2 fanout-10 experiment where
// the gap between SM and CP w/repl. narrows.
func BenchmarkSmallNodeBtree(b *testing.B) {
	for _, s := range []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, Replication: true},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			p := btree.DefaultParams()
			p.Fanout = 10
			var r btree.Result
			for i := 0; i < b.N; i++ {
				cfg := btreeConfig(s, 0)
				cfg.Params = p
				r = btree.RunExperiment(cfg)
			}
			b.ReportMetric(r.Throughput, "ops/1000cyc")
		})
	}
}

// benchSuite runs the whole quick-scale evaluation suite — every table
// and figure — with the given worker count.
func benchSuite(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run("all", harness.Options{Quick: true, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial measures the full quick-scale suite executed
// serially (workers=1), the pre-worker-pool behavior.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel measures the full quick-scale suite on one
// worker per CPU. Output is byte-identical to the serial run; only the
// wall clock changes.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkSuiteEngineSleep measures the simulator's uncontended
// sleep path: a single thread sleeping repeatedly, which the engine can
// satisfy by fast-advancing the clock with no event allocation or
// coroutine switch.
func BenchmarkSuiteEngineSleep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		eng.Spawn("sleeper", 0, func(th *sim.Thread) {
			for k := 0; k < 1000; k++ {
				th.Sleep(10)
			}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteEngineContendedSleep measures the event-heap slow path:
// two threads whose sleeps always interleave, so every wakeup goes
// through a (pooled) event and a park/resume coroutine switch.
func BenchmarkSuiteEngineContendedSleep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		for t := 0; t < 2; t++ {
			eng.Spawn("sleeper", 0, func(th *sim.Thread) {
				for k := 0; k < 500; k++ {
					th.Sleep(10)
				}
			})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func parseLeadingFloat(s string) float64 {
	var v float64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + float64(c-'0')
	}
	return v
}
