package machine

import (
	"strings"
	"testing"

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/policy"
	"compmig/internal/sim"
	"compmig/internal/store"
)

// stubApp records what Attach wired into it.
type stubApp struct {
	wal *store.Store
	pol *policy.Engine
}

func (a *stubApp) EnableDurability(w *store.Store) { a.wal = w }
func (a *stubApp) AttachPolicy(e *policy.Engine)   { a.pol = e }

// TestBuildTakesNoDraws pins the property that keeps the two-phase
// build identical to wiring each layer by hand around the app's Build:
// neither New nor Attach draws from the engine's PRNG, with every
// optional layer on.
func TestBuildTakesNoDraws(t *testing.T) {
	const seed = 7
	faults, err := fault.ParseSpec("drop=0.05,dup=0.01,delay=0:40,crash=p3@1000+500,wipe=p2@2000+800,ckpt=500,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := cost.ParseHetero("gradient:1:4")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.NewEngine(seed).Rand().State()
	m, err := New(Config{
		Procs: 8, Seed: seed, Scheme: core.Scheme{Mechanism: core.Migrate},
		Mesh: true, Hetero: hetero, Policy: "bandit", Faults: faults, Durable: true,
		DropNthAppend: 3, DropNthReplay: 2, TraceCap: 16, MaxEvents: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if got := m.Eng.Rand().State(); got != want {
		t.Fatalf("New drew from the engine PRNG: state %v, want %v", got, want)
	}
	var app stubApp
	m.Attach(&app)
	if got := m.Eng.Rand().State(); got != want {
		t.Fatalf("Attach drew from the engine PRNG: state %v, want %v", got, want)
	}
	if app.wal == nil || app.wal != m.WAL || app.pol == nil || app.pol != m.Pol {
		t.Fatalf("Attach wired wal=%v pol=%v into the app, want the machine's %v and %v", app.wal, app.pol, m.WAL, m.Pol)
	}
	if m.Inj == nil || m.Mem == nil || m.Trace == nil || m.RT.Obs == nil {
		t.Fatalf("optional layers missing: inj=%v mem=%v trace=%v obs=%v", m.Inj, m.Mem, m.Trace, m.RT.Obs)
	}
}

// TestBuildLeavesOptionalLayersOut checks the paper's machine: no
// substrate outside SharedMem, no injector, store or policy engine.
func TestBuildLeavesOptionalLayersOut(t *testing.T) {
	m := MustNew(Config{Procs: 4, Scheme: core.Scheme{Mechanism: core.RPC}, Faults: &fault.Spec{}})
	var app stubApp
	m.Attach(&app)
	if m.Mem != nil || m.Inj != nil || m.WAL != nil || m.Pol != nil || m.Trace != nil || app.wal != nil || app.pol != nil {
		t.Fatalf("optional layer built: mem=%v inj=%v wal=%v pol=%v trace=%v", m.Mem, m.Inj, m.WAL, m.Pol, m.Trace)
	}
	if r := m.Report(); r != (Report{}) {
		t.Fatalf("Report() = %+v, want zero", r)
	}
	if sm := MustNew(Config{Procs: 4, Scheme: core.Scheme{Mechanism: core.SharedMem}}); sm.Mem == nil {
		t.Fatal("SharedMem scheme built no substrate")
	}
}

func TestValidate(t *testing.T) {
	spec := func(s string) *fault.Spec {
		f, err := fault.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		name string
		cfg  Config
		want string // "" = valid
	}{
		{"paper machine", Config{Procs: 4}, ""},
		{"window on the last proc", Config{Procs: 4, Faults: spec("crash=p3@100+100")}, ""},
		{"crash window off the machine", Config{Procs: 4, Faults: spec("crash=p4@100+100")}, "fault window targets proc 4, machine has [0,4)"},
		{"wipe window off the machine", Config{Procs: 4, Faults: spec("wipe=p99@100+100")}, "fault window targets proc 99"},
		{"bad policy", Config{Procs: 4, Policy: "nope"}, "policy"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			_, newErr := New(c.cfg)
			if c.want == "" {
				if err != nil || newErr != nil {
					t.Fatalf("Validate() = %v, New error = %v; want valid", err, newErr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.want)
			}
			if newErr == nil || newErr.Error() != err.Error() {
				t.Fatalf("New error = %v, want Validate's %v", newErr, err)
			}
		})
	}
}

func TestTopologyHelper(t *testing.T) {
	if topology(false, 30).Name() != "crossbar" {
		t.Error("default topology not crossbar")
	}
	m := topology(true, 30)
	if m.Name() == "crossbar" {
		t.Error("mesh not selected")
	}
	// The mesh must cover all 30 procs (6x5 or larger).
	if m.Hops(0, 29) == 0 {
		t.Error("mesh distance degenerate")
	}
}
