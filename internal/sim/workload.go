package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/crdt"
	"repro/internal/model"
)

// GenFunc generates a random operation plausibly applicable at replica state
// s; see registry.OpGen, which has the identical signature. s is lent: the
// cluster may mutate it in place after the call, so Gen must not keep it.
type GenFunc func(rng *rand.Rand, s crdt.State, abs crdt.Abstraction, pool []model.Value, fresh func() model.Value) model.Op

// Workload describes a randomized cluster run.
type Workload struct {
	Object crdt.Object
	Abs    crdt.Abstraction
	Gen    GenFunc
	// Nodes is the cluster size (default 3).
	Nodes int
	// Steps is the number of scheduler steps (default 40). Each step either
	// issues an operation or delivers a pending effector.
	Steps int
	// DeliverBias is the probability of preferring a delivery over an
	// invocation when both are possible (default 0.5).
	DeliverBias float64
	// DropProb is the probability that an issued effector is lost on its
	// way to a given destination, never to be delivered there (default 0).
	// Under causal delivery whatever depends on it waits there forever, and
	// FinalDrain stops at that quiescent state.
	DropProb float64
	// Link, when active, applies seeded link faults (loss-with-retransmit,
	// bounded duplication, reorder delays) to every broadcast copy; the
	// workload seed drives the fault RNG, so runs stay reproducible. The
	// scheduler advances the virtual clock one tick per step, and
	// FinalDrain outwaits any remaining latency windows.
	Link LinkFaults
	// Causal enables causal delivery.
	Causal bool
	// FinalDrain delivers every remaining message at the end so the cluster
	// quiesces (default false: messages may stay in flight, as the paper's
	// network model allows).
	FinalDrain bool
	// Pool is the element pool for Gen (default {"a","b","c"}).
	Pool []model.Value
}

// Run executes the workload with the given seed and returns the cluster in
// its final state (with its recorded trace).
func (w Workload) Run(seed int64) *Cluster {
	rng := rand.New(rand.NewSource(seed))
	nodes := w.Nodes
	if nodes == 0 {
		nodes = 3
	}
	steps := w.Steps
	if steps == 0 {
		steps = 40
	}
	bias := w.DeliverBias
	if bias == 0 {
		bias = 0.5
	}
	pool := w.Pool
	if pool == nil {
		pool = []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	}
	var opts []Option
	if w.Causal {
		opts = append(opts, WithCausalDelivery())
	}
	if w.Link.Active() {
		opts = append(opts, WithLinkFaults(w.Link, seed))
	}
	c := NewCluster(w.Object, nodes, opts...)
	freshID := 0
	fresh := func() model.Value {
		freshID++
		return model.Str(fmt.Sprintf("x%d", freshID))
	}
	for i := 0; i < steps; i++ {
		if c.Pending() > 0 && rng.Float64() < bias {
			if c.DeliverRandom(rng) {
				continue
			}
		}
		t := model.NodeID(rng.Intn(nodes))
		// Rejection-sample operations whose preconditions fail.
		issued := false
		for try := 0; try < 8; try++ {
			op := w.Gen(rng, c.states[t], w.Abs, pool, fresh)
			_, mid, err := c.Invoke(t, op)
			if err == nil {
				issued = true
				if w.DropProb > 0 {
					for dst := 0; dst < nodes; dst++ {
						if model.NodeID(dst) != t && rng.Float64() < w.DropProb {
							// Ignore "no pending message": identity effectors
							// are never queued.
							_ = c.Drop(model.NodeID(dst), mid)
						}
					}
				}
				break
			}
			if !errors.Is(err, crdt.ErrAssume) {
				panic(err)
			}
		}
		if !issued && c.Pending() > 0 {
			c.DeliverRandom(rng)
		}
		c.Tick()
	}
	if w.FinalDrain {
		c.DeliverAll()
	}
	return c
}
