package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestDropErrorClassification: Drop distinguishes its failure modes with
// sentinel errors instead of a generic "no such message", so callers (and the
// chaos engine) can tell a bogus MsgID from a double drop from a race with
// delivery.
func TestDropErrorClassification(t *testing.T) {
	type step struct {
		deliver bool // deliver the message to dst first
		drop    int  // number of prior Drop calls for the same (dst, mid)
		mid     func(real model.MsgID) model.MsgID
		want    error
	}
	cases := []struct {
		name string
		step step
	}{
		{"unknown MsgID", step{
			mid:  func(model.MsgID) model.MsgID { return model.MsgID(9999) },
			want: ErrUnknownMessage,
		}},
		{"double drop", step{
			drop: 1,
			mid:  func(real model.MsgID) model.MsgID { return real },
			want: ErrAlreadyDropped,
		}},
		{"drop after deliver", step{
			deliver: true,
			mid:     func(real model.MsgID) model.MsgID { return real },
			want:    ErrAlreadyDelivered,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			alg := registry.GSet()
			c := NewCluster(alg.New(), 2)
			_, mid, err := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")})
			if err != nil {
				t.Fatal(err)
			}
			if tc.step.deliver {
				if err := c.Deliver(1, mid); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.step.drop; i++ {
				if err := c.Drop(1, mid); err != nil {
					t.Fatalf("setup drop %d: %v", i, err)
				}
			}
			err = c.Drop(1, tc.step.mid(mid))
			if !errors.Is(err, tc.step.want) {
				t.Fatalf("Drop error = %v, want %v", err, tc.step.want)
			}
		})
	}
}

// TestRefusalClassification: Invoke, Deliver, Crash and Recover refuse what
// the cluster cannot do with errors a harness can tell apart — a sentinel
// matched with errors.Is where the package declares one, the message
// otherwise.
func TestRefusalClassification(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	add := func(e string) model.Op { return model.Op{Name: spec.OpAdd, Arg: model.Str(e)} }
	rejecting := func([]byte) (crdt.State, error) { return nil, errors.New("rejected") }
	cases := []struct {
		name string
		opts []Option
		// refuse runs once node 0 has broadcast mid to nodes 1 and 2, and
		// returns the refusal under test.
		refuse func(t *testing.T, c *Cluster, mid model.MsgID) error
		want   error  // the sentinel, for refusals that have one
		text   string // a fragment of the message, for those that do not
	}{
		{name: "invoke at a down node", want: ErrNodeDown,
			refuse: func(t *testing.T, c *Cluster, _ model.MsgID) error {
				must(t, c.Crash(0))
				_, _, err := c.Invoke(0, add("b"))
				return err
			}},
		{name: "deliver to a down node", want: ErrNodeDown,
			refuse: func(t *testing.T, c *Cluster, mid model.MsgID) error {
				must(t, c.Crash(1))
				return c.Deliver(1, mid)
			}},
		{name: "deliver across a partition", want: ErrPartitioned,
			refuse: func(t *testing.T, c *Cluster, mid model.MsgID) error {
				must(t, c.Partition([]model.NodeID{0}, []model.NodeID{1, 2}))
				return c.Deliver(1, mid)
			}},
		{name: "deliver in transit", want: ErrInTransit,
			opts: []Option{WithLinkFaults(LinkFaults{Loss: 1}, 1)},
			refuse: func(t *testing.T, c *Cluster, mid model.MsgID) error {
				return c.Deliver(1, mid)
			}},
		{name: "deliver out of causal order", want: ErrCausalOrder,
			opts: []Option{WithCausalDelivery()},
			refuse: func(t *testing.T, c *Cluster, mid model.MsgID) error {
				must(t, c.Deliver(1, mid))
				_, next, err := c.Invoke(1, add("b"))
				must(t, err)
				return c.Deliver(2, next)
			}},
		{name: "crash a down node", want: ErrNodeDown,
			refuse: func(t *testing.T, c *Cluster, _ model.MsgID) error {
				must(t, c.Crash(1))
				return c.Crash(1)
			}},
		{name: "recover a live node", text: "node is not crashed",
			refuse: func(t *testing.T, c *Cluster, _ model.MsgID) error {
				return c.Recover(1, false)
			}},
		{name: "fresh recover from a snapshot the decoder rejects",
			text: "does not decode with the registered state decoder",
			opts: []Option{WithSnapshots(1, rejecting)},
			refuse: func(t *testing.T, c *Cluster, _ model.MsgID) error {
				c.DeliverAll()
				if c.SnapshotCovered() == 0 {
					t.Fatal("setup: no snapshot was taken")
				}
				must(t, c.Crash(1))
				return c.Recover(1, true)
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(registry.GSet().New(), 3, tc.opts...)
			_, mid, err := c.Invoke(0, add("a"))
			must(t, err)
			err = tc.refuse(t, c, mid)
			switch {
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("error = %v, want %v", err, tc.want)
			case tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.text)):
				t.Fatalf("error = %v, want one containing %q", err, tc.text)
			}
		})
	}
}

// TestDropErrorsAreDistinct: the sentinels classify, so no two of them may
// alias each other.
func TestDropErrorsAreDistinct(t *testing.T) {
	sentinels := []error{ErrUnknownMessage, ErrAlreadyDelivered, ErrAlreadyDropped}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinel %v aliases %v", a, b)
			}
		}
	}
}

// TestDropOtherDestinationUnaffected: dropping node 1's copy must leave node
// 2's copy deliverable — drops are per-destination, as in the Sec 3 model
// where each node independently receives at most once.
func TestDropOtherDestinationUnaffected(t *testing.T) {
	alg := registry.GSet()
	c := NewCluster(alg.New(), 3)
	_, mid, err := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str("a")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drop(1, mid); err != nil {
		t.Fatal(err)
	}
	if err := c.Deliver(2, mid); err != nil {
		t.Fatalf("node 2's copy must survive node 1's drop: %v", err)
	}
	// And the dropped destination stays dropped: delivery now fails too,
	// classified as a drop rather than an unknown message.
	if err := c.Deliver(1, mid); !errors.Is(err, ErrAlreadyDropped) {
		t.Fatalf("Deliver after drop = %v, want %v", err, ErrAlreadyDropped)
	}
}

// TestCausalDrainAfterDrops: the paper's network may lose a message, and
// under causal delivery everything downstream of a lost message waits at
// that node forever. A final drain must stop at that quiescent state instead
// of reporting broken dependency tracking, and the trace must still be
// well-formed and convergent.
func TestCausalDrainAfterDrops(t *testing.T) {
	for _, alg := range []registry.Algorithm{registry.RWSet(), registry.AWSet()} {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				w := Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: GenFunc(alg.GenOp),
					Causal: true, DropProb: 0.2, FinalDrain: true,
				}
				tr := w.Run(seed).Trace()
				if err := tr.CheckWellFormed(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestDeliverAllStopsOnlyAtLostDependencies: DeliverAll returns when every
// queued message waits, directly or through another waiting message, on one
// dropped at its destination, and still panics when a message waits on one
// that was neither dropped nor queued there.
func TestDeliverAllStopsOnlyAtLostDependencies(t *testing.T) {
	add := func(c *Cluster, node model.NodeID, e string) model.MsgID {
		t.Helper()
		_, mid, err := c.Invoke(node, model.Op{Name: spec.OpAdd, Arg: model.Str(e)})
		if err != nil {
			t.Fatal(err)
		}
		return mid
	}
	deliver := func(c *Cluster, dst model.NodeID, mid model.MsgID) {
		t.Helper()
		if err := c.Deliver(dst, mid); err != nil {
			t.Fatal(err)
		}
	}
	alg := registry.AWSet()
	c := NewCluster(alg.New(), 3, WithCausalDelivery())
	m1 := add(c, 0, "a")
	if err := c.Drop(2, m1); err != nil {
		t.Fatal(err)
	}
	deliver(c, 1, m1)
	add(c, 1, "b")       // waits at node 2 on m1
	m3 := add(c, 0, "c") // waits at node 2 on m1, its origin's previous broadcast
	deliver(c, 1, m3)
	add(c, 1, "d") // waits at node 2 on m2 and m3 only
	c.DeliverAll()
	if got := c.PendingTo(2); got != 3 || c.Pending() != 3 {
		t.Fatalf("pending %d (node 2: %d), want node 2's 3 copies downstream of the lost m1", c.Pending(), got)
	}
	if _, ok := c.Converged(alg.Abs); ok {
		t.Fatal("node 2 converged without the lost add")
	}

	// A message waiting on a broadcast that never reached its destination's
	// queue, and was not dropped there either, is a tracking bug.
	c = NewCluster(alg.New(), 2, WithCausalDelivery())
	m1 = add(c, 0, "a")
	c.net.Remove(1, m1)
	add(c, 0, "b")
	defer func() {
		if recover() == nil {
			t.Fatal("DeliverAll returned on a dependency that was never dropped")
		}
	}()
	c.DeliverAll()
}
