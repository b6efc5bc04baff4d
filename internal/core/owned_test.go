package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The checkers' concrete replays apply in place once a pure step has built
// them a state of their own (replay). These tests pin that they write
// nothing they were given: the initial state, and the effectors the trace
// shares with the cluster that recorded it.

// reusedInit is an object whose Init hands out one state every time, so a
// decider that wrote its initial state would show it.
type reusedInit struct {
	crdt.Object
	s crdt.State
}

func (o reusedInit) Init() crdt.State { return o.s }

// queryFirst records a small causal execution of alg on 3 nodes in which
// every node starts with a read. A read's identity effector returns its
// argument, so a replay that took ownership at a node's first step of any
// kind would write the initial state.
func queryFirst(t *testing.T, alg registry.Algorithm, seed int64) trace.Trace {
	t.Helper()
	c := sim.NewCluster(alg.New(), 3, sim.WithCausalDelivery())
	for n := model.NodeID(0); n < 3; n++ {
		mustInvoke(t, c, n, model.Op{Name: spec.OpRead})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, so := range sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), 3, 5, seed, true) {
		// The script was generated on a drained cluster and this one
		// delivers only partially, so a precondition may fail.
		if _, _, err := c.Invoke(so.Node, so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatal(err)
		}
		c.DeliverRandom(rng)
	}
	c.DeliverAll()
	return c.Trace()
}

// effectorBytes renders the encodings of the trace's effectors.
func effectorBytes(tr trace.Trace) []byte {
	var b []byte
	for _, e := range tr {
		b = e.Eff.AppendBinary(b)
	}
	return b
}

// TestCheckersWriteNoInput: both deciders and the convergence check leave
// the initial state they start from and every traced effector byte-equal.
func TestCheckersWriteNoInput(t *testing.T) {
	for _, alg := range registry.All() {
		for seed := int64(1); seed <= 3; seed++ {
			tr := queryFirst(t, alg, seed)
			init := alg.New().Init()
			wantInit, wantEffs := init.AppendBinary(nil), effectorBytes(tr)
			p := Problem{Object: reusedInit{alg.New(), init}, Spec: alg.Spec, Abs: alg.Abs}
			xp := XProblem{Problem: p, XSpec: alg.XSpec}
			checks := map[string]func() (Result, error){
				"exhaustive": func() (Result, error) { return CheckACC(tr, p) },
				"witness":    func() (Result, error) { return CheckACCWitness(tr, p, alg.TSOrder) },
				"convergence": func() (Result, error) {
					return Result{OK: true}, CheckConvergenceFrom(tr, init, alg.Abs)
				},
			}
			if alg.IsX() {
				checks["exhaustive"] = func() (Result, error) { return CheckXACC(tr, xp) }
				checks["witness"] = func() (Result, error) { return CheckXACCWitness(tr, xp) }
			}
			for name, check := range checks {
				res, err := check()
				if err != nil || !res.OK {
					t.Fatalf("%s seed %d %s: err %v, reason %q\n%s", alg.Name, seed, name, err, res.Reason, tr)
				}
				if got := init.AppendBinary(nil); !bytes.Equal(got, wantInit) {
					t.Fatalf("%s seed %d %s: the initial state became %q", alg.Name, seed, name, got)
				}
				if !bytes.Equal(effectorBytes(tr), wantEffs) {
					t.Fatalf("%s seed %d %s: a traced effector changed", alg.Name, seed, name)
				}
			}
		}
	}
}
