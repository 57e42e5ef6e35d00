package machine

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"compmig/internal/core"
	"compmig/internal/fault"
)

// Flags is the flag set the app CLIs (countnet, btree, kv) share: the
// machine flags -scheme, -policy, -faults, -durable and -seed, plus
// -policy-stats. It validates them, and prints the report lines the
// CLIs share. Every message is prefixed with the app's name; a bad flag
// exits 2 before any run, a failed run exits 1.
type Flags struct {
	Scheme  core.Scheme
	Policy  string
	Faults  *fault.Spec
	Durable bool
	Seed    uint64

	app, scheme, faults, policyStats string
}

// NewFlags registers the shared flags on the default command line.
func NewFlags(app string) *Flags {
	f := &Flags{app: app}
	flag.StringVar(&f.scheme, "scheme", "cm", "scheme: rpc|cm|sm|om with +hw/+repl (e.g. cm+repl+hw)")
	flag.StringVar(&f.Policy, "policy", "", "online mechanism selection: static:<rpc|cm|sm|om>, costmodel, or bandit[:eps]")
	flag.StringVar(&f.policyStats, "policy-stats", "", "write the policy engine's live statistics as JSON to this file (requires -policy)")
	flag.StringVar(&f.faults, "faults", "", "fault plan, e.g. drop=0.01,delay=0:40,crash=p3@50000+20000,wipe=p2@60000+8000,ckpt=20000,seed=7 (empty = no faults)")
	flag.BoolVar(&f.Durable, "durable", false, "force the per-processor WAL/checkpoint store on (wipe= windows switch it on automatically)")
	flag.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	return f
}

// Parse parses the command line and the shared flags' values.
func (f *Flags) Parse() {
	flag.Parse()
	var err error
	if f.Scheme, err = ParseScheme(f.scheme); err != nil {
		f.Failf("%v", err)
	}
	if f.Faults, err = fault.ParseSpec(f.faults); err != nil {
		f.Failf("%v", err)
	}
	if f.policyStats != "" && f.Policy == "" {
		f.Failf("-policy-stats requires -policy")
	}
}

// Failf reports a bad flag and exits 2.
func (f *Flags) Failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", f.app, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// Check rejects a run whose machine the builder would refuse (a bad
// policy spec, a fault window off the machine), before it starts.
func (f *Flags) Check(c Config) {
	if err := c.Validate(); err != nil {
		f.Failf("%v", err)
	}
}

// Head writes -policy-stats, then prints the scheme and policy lines.
func (f *Flags) Head(scheme string, r Report) {
	if f.policyStats != "" {
		data, err := json.MarshalIndent(r.PolicyStats, "", "  ")
		if err == nil {
			err = os.WriteFile(f.policyStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing policy stats: %v\n", f.app, err)
			os.Exit(1)
		}
	}
	fmt.Printf("scheme            %s\n", scheme)
	if r.Policy != "" {
		fmt.Printf("policy            %s (decisions rpc:%d cm:%d sm:%d om:%d)\n",
			r.Policy, r.Decisions[0], r.Decisions[1], r.Decisions[2], r.Decisions[3])
	}
}

// Tail prints the cache hit rate of a run that used shared memory, the
// fault and durability counters, and, when checked, the invariant
// verdict; it exits 1 if an invariant was violated.
func (f *Flags) Tail(hitRate float64, r Report, checked bool, invariantErr string) {
	if hitRate > 0 {
		fmt.Printf("cache hit rate    %.1f%%\n", hitRate*100)
	}
	if r.Fault != nil {
		fmt.Printf("faults injected   drop:%d dup:%d crash:%d pause:%d\n",
			r.Fault.Dropped, r.Fault.Duplicated, r.Fault.CrashDropped, r.Fault.PauseDelayed)
		fmt.Printf("fault recovery    retransmits:%d timeouts:%d dup-suppressed:%d giveups:%d\n",
			r.Fault.Retransmits, r.Fault.Timeouts, r.Fault.DupSuppressed, r.Fault.GiveUps)
	}
	if r.Recovery != nil {
		fmt.Printf("durability        appends:%d fsyncs:%d checkpoints:%d ckpt-words:%d\n",
			r.Recovery.Appends, r.Recovery.Fsyncs, r.Recovery.Checkpoints, r.Recovery.CheckpointWords)
		fmt.Printf("crash recovery    wipes:%d restores:%d replays:%d rereg:%d cycles:%d\n",
			r.Recovery.Wipes, r.Recovery.Restores, r.Recovery.Replays, r.Recovery.Reregistered, r.Recovery.RecoveryCycles)
	}
	if !checked {
		return
	}
	if invariantErr != "" {
		fmt.Fprintf(os.Stderr, "%s: INVARIANT VIOLATED: %s\n", f.app, invariantErr)
		os.Exit(1)
	}
	fmt.Printf("invariants        ok\n")
}

// ParseScheme parses a command-line scheme spec: a mechanism ("rpc",
// "cm", "sm", or "om") optionally followed by "+hw" and/or "+repl",
// e.g. "cm+repl+hw".
func ParseScheme(spec string) (core.Scheme, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "+")
	var s core.Scheme
	switch parts[0] {
	case "rpc":
		s.Mechanism = core.RPC
	case "cm", "cp", "migrate":
		s.Mechanism = core.Migrate
	case "sm", "shm", "sharedmem":
		s.Mechanism = core.SharedMem
	case "om", "obj", "objmigrate":
		s.Mechanism = core.ObjMigrate
	default:
		return s, fmt.Errorf("unknown mechanism %q (want rpc, cm, sm, or om)", parts[0])
	}
	for _, opt := range parts[1:] {
		switch opt {
		case "hw":
			s.HWMessaging = true
			s.HWTranslate = true
		case "repl":
			s.Replication = true
		default:
			return s, fmt.Errorf("unknown scheme option %q (want hw or repl)", opt)
		}
	}
	if s.Mechanism == core.SharedMem && (s.HWMessaging || s.Replication) {
		return s, fmt.Errorf("shared memory already includes hardware support and replication")
	}
	return s, nil
}
