// Quickstart: build a small simulated distributed-memory machine, place
// an object on a remote processor, and access it first with RPC and then
// with computation migration, printing what each mechanism cost.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// account is our object: a balance that can be read and added to.
type account struct{ balance uint64 }

// addArgs is the marshaled argument record for the deposit method — the
// stub a compiler would generate.
type addArgs struct{ amount uint64 }

func (a *addArgs) MarshalWords(w *msg.Writer)         { w.PutU64(a.amount) }
func (a *addArgs) UnmarshalWords(r *msg.Reader) error { a.amount = r.U64(); return r.Err() }

// balanceReply carries the balance back.
type balanceReply struct{ balance uint64 }

func (b *balanceReply) MarshalWords(w *msg.Writer)         { w.PutU64(b.balance) }
func (b *balanceReply) UnmarshalWords(r *msg.Reader) error { b.balance = r.U64(); return r.Err() }

// auditCont is a migratable procedure: it moves to the account and makes
// several accesses locally, then returns the final balance directly to
// the caller. Its fields are the live variables at the migration point.
type auditCont struct {
	rt      *core.Runtime
	contID  core.ContID
	target  gid.GID
	deposit uint64
	rounds  uint32
}

func (c *auditCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.target))
	w.PutU64(c.deposit)
	w.PutU32(c.rounds)
}

func (c *auditCont) UnmarshalWords(r *msg.Reader) error {
	c.target = gid.GID(r.U64())
	c.deposit = r.U64()
	c.rounds = r.U32()
	return r.Err()
}

func (c *auditCont) Run(t *core.Task) {
	if !t.IsLocal(c.target) {
		t.Migrate(c.target, c.contID, c) // ship this frame to the data
		return
	}
	acct := t.State(c.target).(*account)
	for i := uint32(0); i < c.rounds; i++ {
		t.Work(25)
		acct.balance += c.deposit
	}
	t.Return(&balanceReply{balance: acct.balance})
}

func run(useMigration bool) (balance uint64, cycles sim.Time, messages, words uint64) {
	scheme := core.Scheme{Mechanism: core.RPC}
	if useMigration {
		scheme.Mechanism = core.Migrate
	}
	m := machine.MustNew(machine.Config{Procs: 4, Seed: 1, Scheme: scheme})
	eng, col, rt := m.Eng, m.Col, m.RT

	// The account lives on processor 3; our thread runs on processor 0.
	acct := rt.Objects.New(3, &account{balance: 100})

	deposit := rt.RegisterMethod("account.deposit", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			a := self.(*account)
			t.Work(25)
			a.balance += args.U64()
			reply.PutU64(a.balance)
		})
	var env auditCont
	env.contID = rt.RegisterCont("account.audit",
		func() core.Continuation { return &auditCont{rt: rt, contID: env.contID} })

	const rounds = 5
	eng.Spawn("client", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		start := th.Now()
		if useMigration {
			var rep balanceReply
			err := task.Do(&auditCont{rt: rt, contID: env.contID,
				target: acct, deposit: 10, rounds: rounds}, &rep)
			if err != nil {
				panic(err)
			}
			balance = rep.balance
		} else {
			var rep balanceReply
			for i := 0; i < rounds; i++ {
				if err := task.Call(acct, deposit, &addArgs{amount: 10}, &rep); err != nil {
					panic(err)
				}
			}
			balance = rep.balance
		}
		cycles = th.Now() - start
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return balance, cycles, col.TotalMessages(), col.WordsSent
}

func main() {
	fmt.Println("five deposits into an account on a remote processor:")
	fmt.Println()
	for _, mode := range []struct {
		name    string
		migrate bool
	}{
		{"RPC (each access remote)", false},
		{"computation migration (frame moves to the data)", true},
	} {
		bal, cyc, msgs, words := run(mode.migrate)
		fmt.Printf("%-50s balance=%d  cycles=%d  messages=%d  words=%d\n",
			mode.name, bal, cyc, msgs, words)
	}
	fmt.Println()
	fmt.Println("same result either way — the annotation changes only performance (§3.1).")
}
