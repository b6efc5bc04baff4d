package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
)

// The cluster applies effectors in place on the states it owns. These tests
// pin the two ways a state stops being its own — Clone shares it, StateOf
// hands it out — and the snapshot resync, whose state must never alias the
// checkpoint's.

// step is one recorded scheduling action: an invocation, or a delivery.
type step struct {
	invoke bool
	op     ScriptOp
	dst    model.NodeID
	mid    model.MsgID
}

// drive invokes script on c, delivering a random deliverable copy after each
// operation and draining at the end, and returns what it did, so replay can
// rebuild the same history on a fresh cluster.
func drive(t *testing.T, c *Cluster, script Script, rng *rand.Rand) []step {
	t.Helper()
	var steps []step
	deliver := func(dst model.NodeID, mid model.MsgID) {
		if err := c.Deliver(dst, mid); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{dst: dst, mid: mid})
	}
	for _, so := range script {
		if _, _, err := c.Invoke(so.Node, so.Op); err == nil {
			steps = append(steps, step{invoke: true, op: so})
		} else if !errors.Is(err, crdt.ErrAssume) {
			t.Fatal(err)
		}
		dst := model.NodeID(rng.Intn(c.N()))
		if mids := c.Deliverable(dst); len(mids) > 0 {
			deliver(dst, mids[rng.Intn(len(mids))])
		}
	}
	for c.Pending() > 0 {
		for dst := model.NodeID(0); int(dst) < c.N(); dst++ {
			for _, mid := range c.Deliverable(dst) {
				deliver(dst, mid)
			}
		}
	}
	return steps
}

// replay rebuilds a history drive recorded.
func replay(t *testing.T, c *Cluster, steps []step) {
	t.Helper()
	for _, s := range steps {
		var err error
		if s.invoke {
			_, _, err = c.Invoke(s.op.Node, s.op.Op)
		} else {
			err = c.Deliver(s.dst, s.mid)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// encodings renders every node's state.
func encodings(c *Cluster) [][]byte {
	var out [][]byte
	for n := 0; n < c.N(); n++ {
		out = append(out, c.StateOf(model.NodeID(n)).AppendBinary(nil))
	}
	return out
}

func newClusterFor(alg registry.Algorithm, opts ...Option) *Cluster {
	if alg.NeedsCausal {
		opts = append(opts, WithCausalDelivery())
	}
	return NewCluster(alg.New(), 3, opts...)
}

// TestCloneOwnership: after Clone, the clone and then its parent run
// histories of their own. Each side's states must equal a from-scratch
// replay of that side's history, so neither side's in-place applies reached
// the states the two shared.
func TestCloneOwnership(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 18, 1, alg.NeedsCausal)
			rng := rand.New(rand.NewSource(1))
			parent := newClusterFor(alg)
			base := drive(t, parent, script[:6], rng)
			child := parent.Clone()
			childSteps := drive(t, child, script[6:12], rng)
			parentSteps := drive(t, parent, script[12:], rng)
			for _, side := range []struct {
				name  string
				c     *Cluster
				steps []step
			}{{"clone", child, childSteps}, {"parent", parent, parentSteps}} {
				want := newClusterFor(alg)
				replay(t, want, append(append([]step(nil), base...), side.steps...))
				if !slices.EqualFunc(encodings(side.c), encodings(want), bytes.Equal) {
					t.Fatalf("%s: states differ from a replay of its own history", side.name)
				}
			}
		})
	}
}

// TestStateOfKeepsEncoding: a state StateOf handed out keeps its encoding
// through later invocations and deliveries at its node.
func TestStateOfKeepsEncoding(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 12, 2, alg.NeedsCausal)
			rng := rand.New(rand.NewSource(2))
			c := newClusterFor(alg)
			drive(t, c, script[:4], rng)
			var held []crdt.State
			for n := 0; n < c.N(); n++ {
				held = append(held, c.StateOf(model.NodeID(n)))
			}
			want := encodings(c)
			drive(t, c, script[4:], rng)
			for i, s := range held {
				if !bytes.Equal(s.AppendBinary(nil), want[i]) {
					t.Fatalf("node %d's handed-out state changed under later applies", i)
				}
			}
		})
	}
}

// TestResyncKeepsCheckpoint: a fresh replica resynced from a snapshot
// applies in place afterwards, and that must leave the checkpoint's shadow
// state and its wire bytes unchanged.
func TestResyncKeepsCheckpoint(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 12, 3, alg.NeedsCausal)
			rng := rand.New(rand.NewSource(3))
			c := newClusterFor(alg, WithSnapshots(2, alg.DecodeState))
			drive(t, c, script[:6], rng)
			if err := c.Crash(1); err != nil {
				t.Fatal(err)
			}
			if err := c.Recover(1, true); err != nil {
				t.Fatal(err)
			}
			if c.snap == nil || !c.RecoveryNotes()[0].FromSnapshot {
				t.Fatal("the resync did not restore from a snapshot")
			}
			ck, wire := c.snap.ck.State, c.snap.wire
			ckEnc, wireCopy := ck.AppendBinary(nil), bytes.Clone(wire)
			var at1 Script
			for _, so := range script[6:] {
				at1 = append(at1, ScriptOp{Node: 1, Op: so.Op})
			}
			drive(t, c, at1, rng)
			if !bytes.Equal(ck.AppendBinary(nil), ckEnc) || !bytes.Equal(wire, wireCopy) {
				t.Fatal("applies after the resync changed the checkpoint")
			}
		})
	}
}
