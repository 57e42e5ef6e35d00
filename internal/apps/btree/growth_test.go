package btree

import (
	"fmt"
	"testing"

	"compmig/internal/core"
)

// TestSmallFanoutGrowth runs the full workload on a fanout-2 tree
// bulk-loaded from one to eight keys, so roots split and the tree grows
// by several levels while other writers are mid-descent: a writer whose
// path runs out must grow the tree over the whole top level or resume one
// level up, and a split whose node's earlier split has not posted yet
// must still land in the parent. Durable runs verify the final key set
// and the B-link structure after the run.
func TestSmallFanoutGrowth(t *testing.T) {
	schemes := []core.Scheme{
		{Mechanism: core.Migrate}, {Mechanism: core.RPC},
		{Mechanism: core.SharedMem}, {Mechanism: core.ObjMigrate},
	}
	for _, s := range schemes {
		for _, keys := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/keys=%d", s.Name(), keys), func(t *testing.T) {
				p := DefaultParams()
				p.Fanout = 2
				for _, durable := range []bool{false, true} {
					r := runRecovering(t, Config{Params: p, InitialKeys: keys, Scheme: s, Durable: durable})
					if r.InvariantErr != "" {
						t.Fatalf("durable=%v: %s", durable, r.InvariantErr)
					}
					if r.Height < 3 {
						t.Errorf("durable=%v: tree height %d, want the run to grow it past 2", durable, r.Height)
					}
				}
			})
		}
	}
}

// runRecovering runs cfg, turning a panic into a test failure.
func runRecovering(t *testing.T, cfg Config) (r Result) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("durable=%v: run panicked: %v", cfg.Durable, p)
		}
	}()
	return RunExperiment(cfg)
}
