package absmachine

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

func op(name model.OpName, arg model.Value) model.Op { return model.Op{Name: name, Arg: arg} }

func TestInvokeComputesReturnFromXi(t *testing.T) {
	m := New(spec.CounterSpec{}, 2, model.Int(0))
	m.Invoke(0, op(spec.OpInc, model.Int(3)))
	ret, _ := m.Invoke(0, op(spec.OpRead, model.Nil()))
	if !ret.Equal(model.Int(3)) {
		t.Fatalf("read = %s", ret)
	}
	// The read is a query: not broadcast.
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (only the inc)", m.Pending())
	}
}

func TestReceiveInsertsAnywhereWhenCommutative(t *testing.T) {
	m := New(spec.CounterSpec{}, 2, model.Int(0))
	m.Invoke(0, op(spec.OpInc, model.Int(1)))
	_, mid := m.Invoke(1, op(spec.OpInc, model.Int(2)))
	// Node 0 has one local op; the incoming op may go before or after it.
	if got := m.InsertPositions(0, mid); len(got) != 2 {
		t.Fatalf("positions = %v, want [0 1]", got)
	}
	if err := m.Receive(0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if !m.StateAt(0).Equal(model.Int(3)) {
		t.Fatalf("state = %s", m.StateAt(0))
	}
	if err := m.Receive(0, mid, 0); err == nil {
		t.Fatal("double receive accepted")
	}
}

// TestCoherenceRestrictsConflicts: with the set specification, conflicting
// add(x)/remove(x) pairs must be ordered consistently across nodes.
func TestCoherenceRestrictsConflicts(t *testing.T) {
	m := New(spec.SetSpec{}, 2, model.List())
	_, addMid := m.Invoke(0, op(spec.OpAdd, model.Int(0)))
	_, rmvMid := m.Invoke(1, op(spec.OpRemove, model.Int(0)))
	// Node 0's ξ is [add]; node 1's is [remove]. Deliver remove to node 0:
	// both orders are momentarily fine at node 0... but each must agree with
	// node 1's view once the add is delivered there too.
	if err := m.Receive(0, rmvMid, 1); err != nil { // node 0: add, remove
		t.Fatal(err)
	}
	// Node 1 must now insert the add BEFORE its remove to agree with node 0.
	pos := m.InsertPositions(1, addMid)
	if len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("positions = %v, want [0]", pos)
	}
	if err := m.Receive(1, addMid, 0); err != nil {
		t.Fatal(err)
	}
	// Converged: both sequences yield the same abstract set.
	if !m.StateAt(0).Equal(m.StateAt(1)) {
		t.Fatalf("states diverge: %s vs %s", m.StateAt(0), m.StateAt(1))
	}
	if !m.StateAt(0).Equal(model.List()) {
		t.Fatalf("state = %s, want empty (add before remove)", m.StateAt(0))
	}
}

// TestVisibilityPreservedByAppend: issuing after receiving orders the
// received op before the new one, and coherence propagates that order.
func TestVisibilityPreservedByAppend(t *testing.T) {
	m := New(spec.SetSpec{}, 2, model.List())
	_, addMid := m.Invoke(0, op(spec.OpAdd, model.Int(7)))
	if err := m.Receive(1, addMid, 0); err != nil {
		t.Fatal(err)
	}
	_, rmvMid := m.Invoke(1, op(spec.OpRemove, model.Int(7))) // sees the add
	// Node 0 must order the remove after its add (they conflict and node 1
	// has add before remove).
	pos := m.InsertPositions(0, rmvMid)
	if len(pos) != 1 || pos[0] != 1 {
		t.Fatalf("positions = %v, want [1]", pos)
	}
}

// TestXMachineCausalDelivery: the Sec 9 machine delivers causally.
func TestXMachineCausalDelivery(t *testing.T) {
	aw := spec.AWSetSpec{}
	m := NewX(aw, 2, model.List())
	_, m1 := m.Invoke(0, op(spec.OpAdd, model.Int(1)))
	_, m2 := m.Invoke(0, op(spec.OpRemove, model.Int(1)))
	got := m.Deliverable(1)
	if len(got) != 1 || got[0] != m1 {
		t.Fatalf("deliverable = %v, want only the add", got)
	}
	if err := m.Receive(1, m1, 0); err != nil {
		t.Fatal(err)
	}
	got = m.Deliverable(1)
	if len(got) != 1 || got[0] != m2 {
		t.Fatalf("deliverable = %v, want the remove", got)
	}
}

// TestXMachineWonByOrder: a concurrent remove must be inserted before the
// conflicting add (remove(e) ◀ add(e) for add-wins), unless canceled.
func TestXMachineWonByOrder(t *testing.T) {
	aw := spec.AWSetSpec{}
	m := NewX(aw, 2, model.List())
	m.Invoke(0, op(spec.OpAdd, model.Int(1)))
	_, rmv := m.Invoke(1, op(spec.OpRemove, model.Int(1))) // concurrent with the add
	pos := m.InsertPositions(0, rmv)
	if len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("positions = %v, want [0] (the remove loses)", pos)
	}
	if err := m.Receive(0, rmv, 0); err != nil {
		t.Fatal(err)
	}
	if !m.StateAt(0).Equal(model.List(model.Int(1))) {
		t.Fatalf("state = %s, want [1] (add wins)", m.StateAt(0))
	}
}

// TestXMachineCancellationRelaxes reproduces the Fig 5(b) flexibility: once
// an add is canceled by a causally later remove, its order against foreign
// concurrent removes is unconstrained.
func TestXMachineCancellationRelaxes(t *testing.T) {
	aw := spec.AWSetSpec{}
	m := NewX(aw, 2, model.List())
	_, add1 := m.Invoke(0, op(spec.OpAdd, model.Int(0)))    // ①
	_, add2 := m.Invoke(1, op(spec.OpAdd, model.Int(0)))    // ②
	_, rmv1 := m.Invoke(0, op(spec.OpRemove, model.Int(0))) // ③ cancels ①
	_, rmv2 := m.Invoke(1, op(spec.OpRemove, model.Int(0))) // ④ cancels ②
	// Deliver ② then ④ to node 0. ① is canceled in ξ0, so inserting ④ after
	// ① is allowed even though remove ◀ add.
	if err := m.Receive(0, add2, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(0, rmv2, 3); err != nil {
		t.Fatal(err)
	}
	// Symmetrically at node 1.
	if err := m.Receive(1, add1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(1, rmv1, 3); err != nil {
		t.Fatal(err)
	}
	if !m.StateAt(0).Equal(model.List()) || !m.StateAt(1).Equal(model.List()) {
		t.Fatalf("states = %s / %s, want empty", m.StateAt(0), m.StateAt(1))
	}
	_ = rmv1
}

func TestCloneAndKey(t *testing.T) {
	m := New(spec.SetSpec{}, 2, model.List())
	m.Invoke(0, op(spec.OpAdd, model.Int(1)))
	cp := m.Clone()
	if cp.Key() != m.Key() {
		t.Fatal("clone key differs")
	}
	cp.Invoke(1, op(spec.OpAdd, model.Int(2)))
	if cp.Key() == m.Key() {
		t.Fatal("clone shares state with original")
	}
}

func TestStuckInsertionDetected(t *testing.T) {
	// Craft a stuck state: node 0 has add(0);remove(0) in order, node 1 has
	// its own conflicting pair ordered oppositely relative to node 0's —
	// impossible through the API, so instead check that Receive rejects an
	// incoherent position directly.
	m := New(spec.SetSpec{}, 2, model.List())
	_, addMid := m.Invoke(0, op(spec.OpAdd, model.Int(0)))
	if err := m.Receive(1, addMid, 0); err != nil {
		t.Fatal(err)
	}
	_, rmvMid := m.Invoke(1, op(spec.OpRemove, model.Int(0)))
	if err := m.Receive(0, rmvMid, 0); err == nil { // before the add: incoherent
		t.Fatal("incoherent insertion accepted")
	}
	if err := m.Receive(0, rmvMid, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAbstractMachineInherentConvergence checks the Sec 6 claim that "the
// abstract semantics inherently guarantees the convergence of the abstract
// object states": driving the machine with random invocations and random
// coherent insertions, whenever every operation has been received everywhere
// the per-node states agree — for every specification.
func TestAbstractMachineInherentConvergence(t *testing.T) {
	type specCase struct {
		name string
		mk   func() *Machine
		ops  []model.Op
	}
	cases := []specCase{
		{"set", func() *Machine { return New(spec.SetSpec{}, 3, model.List()) },
			[]model.Op{
				op(spec.OpAdd, model.Str("a")), op(spec.OpRemove, model.Str("a")),
				op(spec.OpAdd, model.Str("b")), op(spec.OpRemove, model.Str("b")),
			}},
		{"list", func() *Machine {
			return New(spec.ListSpec{}, 3, model.List())
		},
			[]model.Op{
				op(spec.OpAddAfter, model.Pair(spec.Sentinel, model.Str("a"))),
				op(spec.OpAddAfter, model.Pair(spec.Sentinel, model.Str("b"))),
				op(spec.OpAddAfter, model.Pair(spec.Sentinel, model.Str("c"))),
			}},
		{"aw-set", func() *Machine { return NewX(spec.AWSetSpec{}, 3, model.List()) },
			[]model.Op{
				op(spec.OpAdd, model.Int(0)), op(spec.OpRemove, model.Int(0)),
				op(spec.OpAdd, model.Int(1)),
			}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			quiesced := 0
			stuck := 0
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := c.mk()
				issued := 0
				for step := 0; step < 40 && !(issued == len(c.ops) && m.Pending() == 0); step++ {
					if issued < len(c.ops) && rng.Intn(2) == 0 {
						m.Invoke(model.NodeID(rng.Intn(m.N())), c.ops[issued])
						issued++
						continue
					}
					// Deliver something deliverable at a random position.
					type slot struct {
						node model.NodeID
						mid  model.MsgID
						pos  int
					}
					var slots []slot
					for n := 0; n < m.N(); n++ {
						for _, mid := range m.Deliverable(model.NodeID(n)) {
							for _, pos := range m.InsertPositions(model.NodeID(n), mid) {
								slots = append(slots, slot{model.NodeID(n), mid, pos})
							}
						}
					}
					if len(slots) == 0 {
						continue
					}
					s := slots[rng.Intn(len(slots))]
					if err := m.Receive(s.node, s.mid, s.pos); err != nil {
						t.Fatal(err)
					}
				}
				if issued < len(c.ops) || m.Pending() > 0 {
					// The machine's semantics is the set of STUCK-FREE
					// executions (Sec 6); a run that wedged itself — e.g.
					// by orienting a conflict cycle across three nodes — is
					// simply not an execution and is discarded here too.
					stuck++
					continue
				}
				quiesced++
				ref := m.StateAt(0)
				for n := 1; n < m.N(); n++ {
					if !m.StateAt(model.NodeID(n)).Equal(ref) {
						t.Fatalf("seed %d: abstract states diverge: %s vs %s",
							seed, ref, m.StateAt(model.NodeID(n)))
					}
				}
			}
			if quiesced == 0 {
				t.Fatal("every run got stuck; the driver or machine is broken")
			}
			t.Logf("%d quiesced, %d stuck runs", quiesced, stuck)
		})
	}
}
