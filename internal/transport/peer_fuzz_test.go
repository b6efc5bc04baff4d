package transport_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/transport"
)

// deliveryHistory replicates a fixed script of alg among nodes 0–2 of a
// 4-node Mem group, with receive steps interleaved so mids skip Lamport
// sequence numbers, and pumps the three to convergence. Node 3 takes no
// part: it returns the effector frames queued for node 3, in arrival order,
// and the origins' canonical state.
func deliveryHistory(tb testing.TB, alg registry.Algorithm, opts ...transport.PeerOption) ([]transport.Frame, []byte) {
	tb.Helper()
	const n = 4
	m := transport.NewMem(n)
	nodes := make([]*transport.Node, n-1)
	peers := make([]*transport.Peer, n-1)
	for i := range nodes {
		nodes[i], peers[i] = hostSolo(m.Endpoint(model.NodeID(i)), alg, opts...)
	}
	sched := rand.New(rand.NewSource(5))
	for _, so := range sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n-1, 24, 5, alg.NeedsCausal) {
		if _, err := peers[so.Node].Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			tb.Fatalf("invoke %v at %s: %v", so.Op, so.Node, err)
		}
		for k := sched.Intn(3); k > 0; k-- {
			if _, err := nodes[sched.Intn(n-1)].Step(false); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pumpDrain(tb, nodes...)
	want := peers[0].CanonicalState()
	for i, p := range peers[1:] {
		if !bytes.Equal(p.CanonicalState(), want) {
			tb.Fatalf("origin %d diverged from origin 0", i+1)
		}
	}
	var frames []transport.Frame
	gapped := false
	last := map[model.NodeID]model.MsgID{}
	ep := m.Endpoint(n - 1)
	for {
		f, ok, err := ep.Recv(false)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		if prev, seen := last[f.From]; seen && f.MID-prev > n {
			gapped = true
		}
		last[f.From] = f.MID
		frames = append(frames, f)
	}
	if len(frames) < 10 || !gapped {
		tb.Fatalf("history has %d effector frames, Lamport gaps %t: want at least 10, with gaps", len(frames), gapped)
	}
	return frames, want
}

// anyOrder is the delivery order data picks, with duplicates: each byte
// takes one still-pending frame (its low seven bits index the pending list)
// and delivers it twice when its high bit is set. The frames no byte took
// follow in arrival order, then every frame arrives once more, last first.
func anyOrder(data []byte, frames []transport.Frame) []transport.Frame {
	pending := slices.Clone(frames)
	var order []transport.Frame
	for _, b := range data {
		if len(pending) == 0 {
			break
		}
		k := int(b&0x7f) % len(pending)
		order = append(order, pending[k])
		if b&0x80 != 0 {
			order = append(order, pending[k])
		}
		pending = slices.Delete(pending, k, k+1)
	}
	order = append(order, pending...)
	for i := len(frames) - 1; i >= 0; i-- {
		order = append(order, frames[i])
	}
	return order
}

// fifoOrder is the delivery order data picks among origins, keeping each
// origin's frames in sequence as a deps-less mesh delivers them: each byte
// names the origin whose next frame arrives (the next origin with frames
// left, if that one has none), twice when its high bit is set. The rest
// follow in arrival order, then every frame arrives once more.
func fifoOrder(data []byte, frames []transport.Frame) []transport.Frame {
	var queues [3][]transport.Frame
	for _, f := range frames {
		queues[f.From] = append(queues[f.From], f)
	}
	var order []transport.Frame
	for _, b := range data {
		for i := range queues {
			q := &queues[(int(b&0x7f)+i)%len(queues)]
			if len(*q) == 0 {
				continue
			}
			order = append(order, (*q)[0])
			if b&0x80 != 0 {
				order = append(order, (*q)[0])
			}
			*q = (*q)[1:]
			break
		}
	}
	for _, f := range frames {
		if len(queues[f.From]) > 0 && queues[f.From][0].MID == f.MID {
			order = append(order, f)
			queues[f.From] = queues[f.From][1:]
		}
	}
	return append(order, frames...)
}

// FuzzPeerDelivery delivers fixed 3-origin histories to a fresh follower in
// an order the fuzzer picks, with duplicates. Whatever the order, every
// effector applies exactly once, no mid is left above its origin's base,
// and the follower reaches the origins' state. A causal aw-set and a counter
// under the snapshot protocol carry deps, so any order is allowed; a
// deps-less counter has only per-origin FIFO, so its order keeps each
// origin's frames in sequence.
func FuzzPeerDelivery(f *testing.F) {
	aw, okAW := registry.ByName("aw-set")
	counter, okCounter := registry.ByName("counter")
	if !okAW || !okCounter {
		f.Fatal("aw-set or counter not registered")
	}
	cases := []struct {
		name  string
		alg   registry.Algorithm
		order func([]byte, []transport.Frame) []transport.Frame
		opts  []transport.PeerOption
	}{
		{"causal aw-set", aw, anyOrder, nil},
		{"counter with snapshot deps", counter, anyOrder, []transport.PeerOption{transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 2})}},
		{"deps-less counter", counter, fifoOrder, nil},
	}
	frames := make([][]transport.Frame, len(cases))
	want := make([][]byte, len(cases))
	for i, c := range cases {
		frames[i], want[i] = deliveryHistory(f, c.alg, c.opts...)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7f}, 40))
	f.Add([]byte{0x85, 3, 0x91, 200, 17, 0xff, 9, 2, 2, 0x80, 44, 1})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 0x81, 0x82, 0x80, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, c := range cases {
			follower := transport.NewPeer(c.alg.New(), c.alg.DecodeEffector, transport.NewMem(4).Endpoint(3), c.alg.NeedsCausal)
			for _, fr := range c.order(data, frames[i]) {
				if err := follower.Handle(fr); err != nil {
					t.Fatalf("%s: handle %s: %v", c.name, fr.MID, err)
				}
			}
			if got := follower.Applied(); got != len(frames[i]) {
				t.Fatalf("%s: applied %d frames, want each of the %d effectors once", c.name, got, len(frames[i]))
			}
			if g := transport.PeerGaps(follower); g != 0 {
				t.Fatalf("%s: %d mids still wait above their origin's base", c.name, g)
			}
			if !bytes.Equal(follower.CanonicalState(), want[i]) {
				t.Fatalf("%s: follower diverged from the origins", c.name)
			}
		}
	})
}
