package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
)

// TestPolicyStaticABIdentity is the suite-level half of the policy
// layer's correctness bar: every scheme-driven experiment, re-run with
// each config routed through the policy engine pinned to the scheme's
// own mechanism (-policy static:<mech>), must render byte-identical
// tables. The tables embed the simulated cycle counts and word traffic,
// so identical bytes means the policy engine observed without perturbing
// the simulation.
func TestPolicyStaticABIdentity(t *testing.T) {
	t.Cleanup(func() { abPolicyStatic = false })
	render := func(id string, viaPolicy bool) string {
		abPolicyStatic = viaPolicy
		tabs, err := Run(id, quick)
		if err != nil {
			t.Fatalf("Run(%q, policy=%v): %v", id, viaPolicy, err)
		}
		var b strings.Builder
		for _, tb := range tabs {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	// fig1 and table5 are analytic (no scheme-driven app runs); the
	// ext-policy experiment always goes through the engine. Everything
	// else must be unchanged by the rerouting.
	for _, id := range []string{"fig2", "fig3", "table1", "table2", "table3",
		"table4", "smallnode", "ext-objmig"} {
		id := id
		t.Run(id, func(t *testing.T) {
			plain := render(id, false)
			via := render(id, true)
			if plain != via {
				t.Errorf("experiment %q renders differently via policy static pins:\n--- scheme ---\n%s\n--- policy ---\n%s",
					id, plain, via)
			}
		})
	}
}

// TestCostModelTracksBestStatic is the adaptive acceptance bar: at every
// sweep point of the policy experiment, on both apps, costmodel's
// throughput is within 5% of the best static mechanism's and strictly
// above the worst static mechanism's.
func TestCostModelTracksBestStatic(t *testing.T) {
	check := func(t *testing.T, label string, static []float64, adaptive float64) {
		best, worst := static[0], static[0]
		for _, v := range static[1:] {
			if v > best {
				best = v
			}
			if v < worst {
				worst = v
			}
		}
		if adaptive < 0.95*best {
			t.Errorf("%s: costmodel throughput %.3f below 95%% of best static %.3f", label, adaptive, best)
		}
		if adaptive <= worst {
			t.Errorf("%s: costmodel throughput %.3f does not beat worst static %.3f", label, adaptive, worst)
		}
	}

	statics := []string{"static:rpc", "static:cm", "static:sm"}
	for _, think := range []uint64{0, 10000} {
		for _, n := range threadCounts(true) {
			label := fmt.Sprintf("countnet/think=%d/threads=%d", think, n)
			t.Run(label, func(t *testing.T) {
				var st []float64
				for _, p := range statics {
					r := countnet.RunExperiment(countnet.Config{
						Threads: n, Think: think, Policy: p,
						Warmup: 10000, Measure: 60000,
					})
					st = append(st, r.Throughput)
				}
				r := countnet.RunExperiment(countnet.Config{
					Threads: n, Think: think, Policy: "costmodel",
					Warmup: 10000, Measure: 60000,
				})
				check(t, label, st, r.Throughput)
			})
		}
	}
	for _, think := range []uint64{0, 10000} {
		label := "btree/think=" + strconv.FormatUint(think, 10)
		t.Run(label, func(t *testing.T) {
			var st []float64
			for _, p := range statics {
				r := btree.RunExperiment(btree.Config{
					Think: think, Policy: p, Warmup: 10000, Measure: 60000,
				})
				st = append(st, r.Throughput)
			}
			r := btree.RunExperiment(btree.Config{
				Think: think, Policy: "costmodel", Warmup: 10000, Measure: 60000,
			})
			check(t, label, st, r.Throughput)
		})
	}
}
