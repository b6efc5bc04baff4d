package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// secScriptFor returns a small fixed per-spec script for alg, shared by the
// sequential SEC test and the sequential-vs-parallel differential tests.
func secScriptFor(alg registry.Algorithm) Script {
	scripts := map[string]Script{
		"counter": {
			{Node: 0, Op: model.Op{Name: spec.OpInc, Arg: model.Int(2)}},
			{Node: 1, Op: model.Op{Name: spec.OpDec, Arg: model.Int(1)}},
			{Node: 0, Op: model.Op{Name: spec.OpInc, Arg: model.Int(3)}},
		},
		"register": {
			{Node: 0, Op: model.Op{Name: spec.OpWrite, Arg: model.Int(1)}},
			{Node: 1, Op: model.Op{Name: spec.OpWrite, Arg: model.Int(2)}},
			{Node: 0, Op: model.Op{Name: spec.OpWrite, Arg: model.Int(3)}},
		},
		"g-set": {
			{Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("a")}},
			{Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("b")}},
		},
		"set": {
			{Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("a")}},
			{Node: 1, Op: model.Op{Name: spec.OpRemove, Arg: model.Str("a")}},
			{Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("b")}},
		},
		"list": {
			{Node: 0, Op: model.Op{Name: spec.OpAddAfter, Arg: model.Pair(spec.Sentinel, model.Str("a"))}},
			{Node: 1, Op: model.Op{Name: spec.OpAddAfter, Arg: model.Pair(spec.Sentinel, model.Str("b"))}},
			{Node: 0, Op: model.Op{Name: spec.OpAddAfter, Arg: model.Pair(model.Str("a"), model.Str("c"))}},
		},
	}
	name := alg.Spec.Name()
	if name == "aw-set" || name == "rw-set" {
		name = "set"
	}
	return scripts[name]
}

// TestExploreSchedulesSEC: for every algorithm, EVERY delivery schedule of a
// small fixed script converges to the same abstract state at quiescence —
// the universally quantified SEC property, decided exhaustively.
func TestExploreSchedulesSEC(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			script := secScriptFor(alg)
			if script == nil {
				t.Fatalf("no script for %s", alg.Spec.Name())
			}
			// 2p-set's remove precondition blocks schedules where the remove
			// is issued before the add arrives; those branches wait for the
			// delivery, which is exactly the semantics of assume.
			finals := map[string]bool{}
			terminals, err := ExploreSchedules(alg.New(), 2, script, alg.NeedsCausal, 0, func(c *Cluster) error {
				abs, ok := c.Converged(alg.Abs)
				if !ok {
					return fmt.Errorf("replicas diverged at quiescence")
				}
				finals[abs.String()] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if terminals == 0 {
				t.Fatal("no terminal schedules explored")
			}
			t.Logf("%d terminal states, %d distinct outcomes", terminals, len(finals))
			// Different schedules may legitimately reach different outcomes
			// (e.g. the set script's remove sees the add or not); the claim
			// is convergence per schedule, checked above.
		})
	}
}

// TestExploreSchedulesBudget: the state budget aborts exploding explorations.
func TestExploreSchedulesBudget(t *testing.T) {
	alg := registry.Counter()
	var script Script
	for i := 0; i < 8; i++ {
		script = append(script, ScriptOp{Node: model.NodeID(i % 3), Op: model.Op{Name: spec.OpInc, Arg: model.Int(1)}})
	}
	_, err := ExploreSchedules(alg.New(), 3, script, false, 50, func(*Cluster) error { return nil })
	if !errors.Is(err, ErrScheduleBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

// orderSensitiveEff is x ↦ 2x + n: delivery order changes the outcome.
type orderSensitiveEff struct{ n int64 }

func (d orderSensitiveEff) Apply(s crdt.State) crdt.State {
	return orderState{v: s.(orderState).v*2 + d.n}
}
func (d orderSensitiveEff) String() string { return fmt.Sprintf("OS(%d)", d.n) }

func (d orderSensitiveEff) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type orderState struct{ v int64 }

func (s orderState) AppendBinary(b []byte) []byte { return fmt.Appendf(b, "os{%d}", s.v) }

type orderSensitiveObj struct{}

func (orderSensitiveObj) Name() string        { return "order-sensitive" }
func (orderSensitiveObj) Init() crdt.State    { return orderState{} }
func (orderSensitiveObj) Ops() []model.OpName { return []model.OpName{spec.OpInc} }

func (orderSensitiveObj) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	if op.Name != spec.OpInc {
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
	n, _ := op.Arg.AsInt()
	return model.Nil(), orderSensitiveEff{n: n}, nil
}

// TestExploreSchedulesDivergenceDetected: an order-sensitive "CRDT" must
// have a schedule on which the replicas disagree at quiescence, and the
// exhaustive exploration must find it.
func TestExploreSchedulesDivergenceDetected(t *testing.T) {
	script := Script{
		{Node: 0, Op: model.Op{Name: spec.OpInc, Arg: model.Int(1)}},
		{Node: 1, Op: model.Op{Name: spec.OpInc, Arg: model.Int(2)}},
	}
	abs := func(s crdt.State) model.Value { return model.Int(s.(orderState).v) }
	diverged := 0
	terminals, err := ExploreSchedules(orderSensitiveObj{}, 2, script, false, 0, func(c *Cluster) error {
		if !abs(c.StateOf(0)).Equal(abs(c.StateOf(1))) {
			diverged++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if terminals == 0 || diverged == 0 {
		t.Fatalf("expected divergent schedules, got %d/%d", diverged, terminals)
	}
}
