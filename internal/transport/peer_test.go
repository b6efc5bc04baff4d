package transport_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// runPeersOverMem replicates one generated script across n Peer replicas on
// a shared deterministic Mem: each peer invokes its own node's operations
// (interleaved with receive steps so visibility varies), announces Done, and
// pumps to quiescence. Returns the peers for assertions.
func runPeersOverMem(t *testing.T, alg registry.Algorithm, n, ops int, seed int64) []*transport.Peer {
	t.Helper()
	m := transport.NewMem(n)
	peers := make([]*transport.Peer, n)
	for i := range peers {
		peers[i] = transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(model.NodeID(i)), alg.NeedsCausal)
	}
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, ops, seed, alg.NeedsCausal)
	sched := rand.New(rand.NewSource(seed))
	for _, so := range script {
		p := peers[so.Node]
		if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatalf("invoke %v at %s: %v", so.Op, so.Node, err)
		}
		// Let a random peer make some receive progress, so interleavings vary
		// with the seed.
		for k := sched.Intn(3); k > 0; k-- {
			if _, err := peers[sched.Intn(n)].Step(false); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for _, p := range peers {
		if err := p.Done(); err != nil {
			t.Fatalf("done: %v", err)
		}
	}
	for i, p := range peers {
		if err := p.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	return peers
}

// TestPeerConvergesAllAlgorithms replicates every registered algorithm over
// the deterministic Mem transport: after quiescence all peers must hold
// byte-identical canonical states — the same frames, decoders and dedup
// rules the socket transport ships between OS processes.
func TestPeerConvergesAllAlgorithms(t *testing.T) {
	for _, alg := range append(registry.All(), registry.Extensions()...) {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				peers := runPeersOverMem(t, alg, 3, 12, seed)
				ref := peers[0].CanonicalState()
				for i, p := range peers[1:] {
					if !bytes.Equal(p.CanonicalState(), ref) {
						t.Fatalf("seed %d: peer %d's canonical state differs from peer 0's", seed, i+1)
					}
				}
				if _, ok := crdtConverged(alg, peers); !ok {
					t.Fatalf("seed %d: abstract states diverged", seed)
				}
			}
		})
	}
}

func crdtConverged(alg registry.Algorithm, peers []*transport.Peer) (model.Value, bool) {
	ref := alg.Abs(peers[0].State())
	for _, p := range peers[1:] {
		if !alg.Abs(p.State()).Equal(ref) {
			return model.Nil(), false
		}
	}
	return ref, true
}

// TestPeerCausalHoldBack hand-delivers causally ordered frames out of order:
// a causal peer must hold the dependent frame back until its dependency
// arrives, then apply both — converging to the origin's state — while the
// delivery remains at-most-once.
func TestPeerCausalHoldBack(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	m := transport.NewMem(2)
	origin := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), true)
	if _, err := origin.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	// Collect the two frames queued for node 1: the remove causally depends
	// on the add.
	var frames []transport.Frame
	ep := m.Endpoint(1)
	for {
		f, ok, err := ep.Recv(false)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 2 {
		t.Fatalf("queued %d frames, want 2", len(frames))
	}
	add, rmv := frames[0], frames[1]
	if len(rmv.Deps) == 0 {
		t.Fatalf("remove frame carries no causal deps: %+v", rmv)
	}
	follower := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), true)
	if err := follower.Handle(rmv); err != nil {
		t.Fatalf("handle out-of-order remove: %v", err)
	}
	if follower.Applied() != 0 {
		t.Fatal("dependent frame applied before its dependency")
	}
	if err := follower.Handle(add); err != nil {
		t.Fatalf("handle add: %v", err)
	}
	if follower.Applied() != 2 {
		t.Fatalf("applied %d frames after dependency arrived, want 2", follower.Applied())
	}
	// Duplicates of both frames are suppressed.
	if err := follower.Handle(add); err != nil {
		t.Fatal(err)
	}
	if err := follower.Handle(rmv); err != nil {
		t.Fatal(err)
	}
	if follower.Applied() != 2 {
		t.Fatalf("duplicate delivery reapplied: applied=%d", follower.Applied())
	}
	if !bytes.Equal(follower.CanonicalState(), origin.CanonicalState()) {
		t.Fatal("follower did not converge to the origin state")
	}
}

// TestPeerCausalHoldBackTransitive extends the hold-back case to three peers
// and a dependency implied only transitively: origin 0 issues four adds,
// node 1 applies them and removes the first, and node 1's frame names only
// origin 0's last mid — a causal frame carries at most N deps, its causal
// frontier. Delivered in reverse, every frame must be held until its whole
// causal past has applied, then all release in mid order and converge
// byte-identically. A frame carrying the full applied set, as older peers
// send, must be accepted the same way: the wire layout is unchanged.
func TestPeerCausalHoldBackTransitive(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	const n = 3
	m := transport.NewMem(n)
	origin := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), true)
	relay := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), true)
	for i := 1; i <= 4; i++ {
		if _, err := origin.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pumpDrain(t, relay)
	if _, err := relay.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	pumpDrain(t, origin)
	var frames []transport.Frame
	ep := m.Endpoint(2)
	for {
		f, ok, err := ep.Recv(false)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(f.Deps) > n {
			t.Fatalf("frame %s carries %d deps %v, more than the %d origins", f.MID, len(f.Deps), f.Deps, n)
		}
		frames = append(frames, f)
	}
	if len(frames) != 5 {
		t.Fatalf("queued %d frames for node 2, want 5", len(frames))
	}
	// Origin 0's mids are 1, 4, 7, 10; node 1's remove names only 10.
	rmv := frames[4]
	if want := []model.MsgID{10}; !reflect.DeepEqual(rmv.Deps, want) {
		t.Fatalf("node 1's frame %s carries deps %v, want its frontier %v", rmv.MID, rmv.Deps, want)
	}
	legacy := rmv
	legacy.Deps = []model.MsgID{1, 4, 7, 10}
	legacy, err := transport.DecodeWire(transport.EncodeWire(legacy))
	if err != nil {
		t.Fatalf("full-set deps no longer fit the wire format: %v", err)
	}

	for _, last := range []transport.Frame{rmv, legacy} {
		byPayload := map[string]model.MsgID{}
		for _, f := range frames {
			byPayload[string(f.Payload)] = f.MID
		}
		var order []model.MsgID
		dec := func(b []byte) (crdt.Effector, error) {
			order = append(order, byPayload[string(b)])
			return alg.DecodeEffector(b)
		}
		follower := transport.NewPeer(alg.New(), dec, transport.NewMem(n).Endpoint(2), true)
		reversed := []transport.Frame{last, frames[3], frames[2], frames[1], frames[0]}
		for i, f := range reversed {
			if err := follower.Handle(f); err != nil {
				t.Fatalf("deps %v: handle %s: %v", last.Deps, f.MID, err)
			}
			if i < len(reversed)-1 && follower.Applied() != 0 {
				t.Fatalf("deps %v: frame %s applied before its causal past", last.Deps, f.MID)
			}
		}
		if want := []model.MsgID{1, 4, 7, 10, rmv.MID}; !reflect.DeepEqual(order, want) {
			t.Fatalf("deps %v: released in order %v, want mid order %v", last.Deps, order, want)
		}
		for _, p := range []*transport.Peer{origin, relay} {
			if !bytes.Equal(follower.CanonicalState(), p.CanonicalState()) {
				t.Fatalf("deps %v: follower diverged from the peer that applied in causal order", last.Deps)
			}
		}
	}
}

// TestPeerLamportMIDsDisjoint checks that two peers' request IDs never
// collide and that receiving bumps the sequence past observed IDs.
func TestPeerLamportMIDsDisjoint(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	m := transport.NewMem(2)
	a := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
	b := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false)
	inc := model.Op{Name: spec.OpInc}
	for i := 0; i < 3; i++ {
		if _, err := a.Invoke(inc); err != nil {
			t.Fatal(err)
		}
	}
	// b receives a's three broadcasts, then invokes: its next mid must sort
	// after everything it has seen (Lamport order consistent with
	// happens-before).
	for i := 0; i < 3; i++ {
		if ok, err := b.Step(true); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	if _, err := b.Invoke(inc); err != nil {
		t.Fatal(err)
	}
	f, ok, err := m.Endpoint(0).Recv(true)
	if err != nil || !ok {
		t.Fatalf("recv b's broadcast: ok=%v err=%v", ok, err)
	}
	// a's mids on a 2-node group: 1, 3, 5. b observed up to 5, so its next is
	// 2·seq+2 with seq ≥ 3 → at least 8 > 5.
	if f.MID <= 5 {
		t.Fatalf("b's mid %s does not sort after the 3 broadcasts it observed", f.MID)
	}
}
