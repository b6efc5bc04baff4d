package sim

import (
	"errors"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

func TestInvokeAndDeliver(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 2)
	_, mid, err := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
	if got := c.Deliverable(1); len(got) != 1 || got[0] != mid {
		t.Fatalf("deliverable = %v", got)
	}
	if err := c.Deliver(1, mid); err != nil {
		t.Fatal(err)
	}
	if abs, ok := c.Converged(alg.Abs); !ok || !abs.Equal(model.Int(3)) {
		t.Fatalf("converged = %v %s", ok, abs)
	}
	tr := c.Trace()
	if len(tr) != 2 || !tr[0].IsOrigin || tr[1].IsOrigin {
		t.Fatalf("trace = %s", tr)
	}
	if err := tr.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestQueriesAreNotBroadcast(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 3)
	ret, _, err := c.Invoke(0, model.Op{Name: spec.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	if !ret.Equal(model.Int(0)) {
		t.Fatalf("read = %s", ret)
	}
	if c.Pending() != 0 {
		t.Error("identity effectors must not be queued")
	}
}

func TestAssumeRejectionLeavesClusterUntouched(t *testing.T) {
	alg := registry.RGA()
	c := NewCluster(alg.New(), 2)
	_, _, err := c.Invoke(0, model.Op{Name: spec.OpRemove, Arg: model.Str("nope")})
	if !errors.Is(err, crdt.ErrAssume) {
		t.Fatalf("err = %v", err)
	}
	if len(c.Trace()) != 0 || c.Pending() != 0 {
		t.Error("failed invoke must not record events or messages")
	}
}

func TestDrop(t *testing.T) {
	alg := registry.GSet()
	c := NewCluster(alg.New(), 2)
	_, mid, _ := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")})
	if err := c.Drop(1, mid); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Error("drop failed")
	}
	if err := c.Drop(1, mid); err == nil {
		t.Error("double drop must fail")
	}
	if _, ok := c.Converged(alg.Abs); ok {
		t.Error("cluster should not have converged after a drop")
	}
}

func TestCausalDeliveryOrdering(t *testing.T) {
	alg := registry.AWSet()
	c := NewCluster(alg.New(), 2, WithCausalDelivery())
	_, m1, _ := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Int(1)})
	_, m2, _ := c.Invoke(0, model.Op{Name: spec.OpRemove, Arg: model.Int(1)})
	// m2 causally depends on m1: delivering m2 first must be refused.
	if err := c.Deliver(1, m2); err == nil {
		t.Fatal("causal delivery violated")
	}
	if got := c.Deliverable(1); len(got) != 1 || got[0] != m1 {
		t.Fatalf("deliverable = %v, want [%v]", got, m1)
	}
	if err := c.Deliver(1, m1); err != nil {
		t.Fatal(err)
	}
	if err := c.Deliver(1, m2); err != nil {
		t.Fatal(err)
	}
	if !c.Trace().CausalDelivery() {
		t.Error("trace should satisfy causal delivery")
	}
}

func TestNonCausalTraceDetected(t *testing.T) {
	alg := registry.GSet()
	c := NewCluster(alg.New(), 2)
	_, m1, _ := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")})
	_, m2, _ := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("b")})
	if err := c.Deliver(1, m2); err != nil { // out of causal order
		t.Fatal(err)
	}
	if c.Trace().CausalDelivery() {
		t.Error("trace violates causal delivery and must be detected")
	}
	_ = m1
}

// TestRandomRunsConvergeAllAlgorithms is the SEC smoke test: for every
// algorithm, random runs with full final drains converge (replicas map to
// equal abstract states), and the recorded traces are well-formed.
func TestRandomRunsConvergeAllAlgorithms(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				w := Workload{
					Object: alg.New(),
					Abs:    alg.Abs,
					Gen:    GenFunc(alg.GenOp),
					Nodes:  3,
					Steps:  60,
					Causal: alg.NeedsCausal,
				}
				w.FinalDrain = true
				c := w.Run(seed)
				if err := c.Trace().CheckWellFormed(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if alg.NeedsCausal && !c.Trace().CausalDelivery() {
					t.Fatalf("seed %d: causal cluster produced non-causal trace", seed)
				}
				if abs, ok := c.Converged(alg.Abs); !ok {
					t.Fatalf("seed %d: replicas diverged (first = %s)", seed, abs)
				}
			}
		})
	}
}

// TestDropsStillConvergeOnCommonVisible checks the weaker guarantee under
// message loss for the grow-only set: nodes that saw the same adds agree.
func TestDropsStillConvergeOnCommonVisible(t *testing.T) {
	alg := registry.GSet()
	w := Workload{
		Object:     alg.New(),
		Abs:        alg.Abs,
		Gen:        GenFunc(alg.GenOp),
		Nodes:      3,
		Steps:      50,
		DropProb:   0.3,
		FinalDrain: false,
	}
	c := w.Run(7)
	if err := c.Trace().CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	// No convergence claim — just exercise the drop path and trace shape.
	if c.Pending() < 0 {
		t.Fatal("impossible")
	}
}

func TestCloneIndependence(t *testing.T) {
	alg := registry.LWWSet()
	c := NewCluster(alg.New(), 2)
	if _, _, err := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")}); err != nil {
		t.Fatal(err)
	}
	cp := c.Clone()
	if ckey(cp) != ckey(c) {
		t.Fatal("clone key differs immediately after cloning")
	}
	// Advancing the clone must not affect the original.
	if _, _, err := cp.Invoke(1, model.Op{Name: spec.OpAdd, Arg: model.Str("b")}); err != nil {
		t.Fatal(err)
	}
	if ckey(cp) == ckey(c) {
		t.Fatal("clone shares state with the original")
	}
	if len(c.Trace()) != 1 || len(cp.Trace()) != 2 {
		t.Fatalf("traces = %d / %d", len(c.Trace()), len(cp.Trace()))
	}
}

// TestCloneHasRoomForNextEvent: a clone's trace can take one more event
// without growing, whatever the length, so the step an explorer takes on a
// fresh clone does not copy the whole trace again.
func TestCloneHasRoomForNextEvent(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 2)
	for n := 1; n <= 64; n++ {
		if _, _, err := c.Invoke(model.NodeID(n%2), model.Op{Name: spec.OpInc, Arg: model.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if cp := c.Clone(); len(cp.tr) != n || cap(cp.tr) <= n {
			t.Fatalf("clone of a %d-event trace has len %d, cap %d; want room for one more event", n, len(cp.tr), cap(cp.tr))
		}
	}
}

// TestPartitionAndHeal: during a partition both sides stay available and
// progress independently; after healing, the backlog drains and the
// replicas converge — the availability-plus-convergence story of Sec 1.
func TestPartitionAndHeal(t *testing.T) {
	alg := registry.LWWSet()
	c := NewCluster(alg.New(), 4)
	if err := c.Partition([]model.NodeID{0, 1}, []model.NodeID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if !c.Partitioned() {
		t.Fatal("partition not in effect")
	}
	_, mA, _ := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")})
	_, mB, _ := c.Invoke(2, model.Op{Name: spec.OpAdd, Arg: model.Str("b")})
	// Within-group delivery works; cross-group is blocked.
	if err := c.Deliver(1, mA); err != nil {
		t.Fatal(err)
	}
	if err := c.Deliver(2, mA); err == nil {
		t.Fatal("cross-partition delivery succeeded")
	}
	if got := c.Deliverable(3); len(got) != 1 || got[0] != mB {
		t.Fatalf("deliverable at t3 = %v", got)
	}
	// Both sides keep serving reads and writes.
	ret, _, err := c.Invoke(1, model.Op{Name: spec.OpLookup, Arg: model.Str("a")})
	if err != nil || !ret.Equal(model.True) {
		t.Fatalf("lookup during partition: %s %v", ret, err)
	}
	c.DeliverAll() // drains within groups only, must not panic
	if c.Pending() == 0 {
		t.Fatal("cross-partition messages should still be queued")
	}
	c.Heal()
	c.DeliverAll()
	abs, ok := c.Converged(alg.Abs)
	if !ok {
		t.Fatal("no convergence after heal")
	}
	want := model.List(model.Str("a"), model.Str("b"))
	if !abs.Equal(want) {
		t.Fatalf("converged to %s, want %s", abs, want)
	}
	if err := c.Trace().CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionValidation: malformed partitions are rejected; unlisted nodes
// become singletons.
func TestPartitionValidation(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 3)
	if err := c.Partition([]model.NodeID{0, 9}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Partition([]model.NodeID{0}, []model.NodeID{0}); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := c.Partition([]model.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, mid, _ := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(1)})
	if err := c.Deliver(2, mid); err == nil { // node 2 is an implicit singleton
		t.Error("delivery into the singleton group succeeded")
	}
	c.Heal()
	if err := c.Deliver(2, mid); err != nil {
		t.Fatal(err)
	}
}
