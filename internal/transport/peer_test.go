package transport_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/crdts/rga"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// hostSolo hosts alg as object 0 of a Node without a manifest over ep — how
// a single object replicates — and returns the node and its peer. Neither
// step can fail for the lone object 0, so an error panics: the helper also
// runs on mesh goroutines and in child processes, where t.Fatal cannot.
func hostSolo(ep transport.Transport, alg registry.Algorithm, opts ...transport.PeerOption) (*transport.Node, *transport.Peer) {
	n, err := transport.NewNode(ep, nil)
	if err != nil {
		panic(err)
	}
	p, err := n.Register(0, alg.New(), alg.DecodeEffector, alg.NeedsCausal, opts...)
	if err != nil {
		panic(err)
	}
	return n, p
}

// runPeersOverMem replicates one generated script across n replicas on a
// shared deterministic Mem: each peer invokes its own node's operations
// (interleaved with receive steps so visibility varies), announces Done, and
// pumps to quiescence. Returns the peers for assertions.
func runPeersOverMem(t *testing.T, alg registry.Algorithm, n, ops int, seed int64) []*transport.Peer {
	t.Helper()
	m := transport.NewMem(n)
	nodes := make([]*transport.Node, n)
	peers := make([]*transport.Peer, n)
	for i := range peers {
		nodes[i], peers[i] = hostSolo(m.Endpoint(model.NodeID(i)), alg)
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
			if _, err := nodes[sched.Intn(n)].Step(false); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for _, p := range peers {
		if err := p.Done(); err != nil {
			t.Fatalf("done: %v", err)
		}
	}
	for i, node := range nodes {
		if err := node.RunToQuiescence(5 * time.Second); err != nil {
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
				if _, ok := crdtConverged(t, alg, peers); !ok {
					t.Fatalf("seed %d: abstract states diverged", seed)
				}
			}
		})
	}
}

func crdtConverged(t testing.TB, alg registry.Algorithm, peers []*transport.Peer) (model.Value, bool) {
	ref := peerAbs(t, alg, peers[0])
	for _, p := range peers[1:] {
		if !peerAbs(t, alg, p).Equal(ref) {
			return model.Nil(), false
		}
	}
	return ref, true
}

// peerAbs is φ of p's replica state, decoded from its canonical bytes: a
// Peer applies in place and never hands out the state itself.
func peerAbs(t testing.TB, alg registry.Algorithm, p *transport.Peer) model.Value {
	t.Helper()
	st, err := alg.DecodeState(p.CanonicalState())
	if err != nil {
		t.Fatalf("canonical state does not decode: %v", err)
	}
	return alg.Abs(st)
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
	originNode, origin := hostSolo(m.Endpoint(0), alg)
	relayNode, relay := hostSolo(m.Endpoint(1), alg)
	for i := 1; i <= 4; i++ {
		if _, err := origin.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pumpDrain(t, relayNode)
	if _, err := relay.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	pumpDrain(t, originNode)
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
	bn, b := hostSolo(m.Endpoint(1), alg)
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
		if ok, err := bn.Step(true); err != nil || !ok {
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

// doneFrame is node from's completion announcement with no effectful
// broadcasts, the frame a peer's quiescence counts.
func doneFrame(from model.NodeID, mid model.MsgID) transport.Frame {
	return transport.Frame{Kind: transport.KindDone, MID: mid, From: from, Payload: codec.AppendUvarint(nil, 0)}
}

// TestPeerHandleRejectsBadSender: a frame naming the receiving node itself,
// or a node outside the group, as its sender is corrupt. Counting its Done
// would let a phantom peer complete the receiver's quiescence while a real
// peer never announced.
func TestPeerHandleRejectsBadSender(t *testing.T) {
	alg := algFor(t, "counter")
	for _, from := range []model.NodeID{0, 3, 7, -1} {
		m := transport.NewMem(3)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
		if err := p.Handle(doneFrame(1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := p.Handle(doneFrame(from, 5)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("done frame from %s at node 0 of 3: err = %v, want codec.ErrCorrupt", from, err)
		}
		if p.Quiesced() {
			t.Fatalf("done frame from %s quiesced node 0 although node 2 never announced", from)
		}
		if got := p.DonePeers(); got != 1 {
			t.Fatalf("done frame from %s: DonePeers = %d, want 1", from, got)
		}
	}

	// A snapshot's done list is the other way completions arrive: an entry
	// naming a node outside the group is not counted either.
	p := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(3).Endpoint(0), false, transport.WithCatchUp(alg.DecodeState))
	if err := p.CatchUp(); err != nil {
		t.Fatal(err)
	}
	snap := transport.Snapshot{State: alg.New().Init().AppendBinary(nil), Done: []transport.DoneCount{{Node: 1}, {Node: 7}}}
	if err := p.Handle(transport.Frame{Kind: transport.KindSnapshot, MID: 2, From: 1, Payload: transport.EncodeSnapshot(snap)}); err != nil {
		t.Fatal(err)
	}
	if p.Quiesced() || p.DonePeers() != 1 {
		t.Fatalf("a snapshot listing node 7 as done: quiesced %t, DonePeers %d, want false and 1", p.Quiesced(), p.DonePeers())
	}
}

// TestPeerNonPositiveMIDsKeepLamportOrder: request IDs are positive by the
// Lamport layout. A frame carrying another mid is rejected before the
// sequence observes it, and a snapshot listing one as covered is not
// observed either. Observing it would wrap the sequence: the peer's next mid
// would reuse m1, replacing the queued m1 on Mem and reading as a duplicate
// on a socket.
func TestPeerNonPositiveMIDsKeepLamportOrder(t *testing.T) {
	alg := algFor(t, "counter")
	inc := model.Op{Name: spec.OpInc}
	mids := func(t *testing.T, ep transport.Transport) []model.MsgID {
		t.Helper()
		var out []model.MsgID
		for {
			f, ok, err := ep.Recv(false)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			if f.Kind == transport.KindEffector {
				out = append(out, f.MID)
			}
		}
	}
	for _, mid := range []model.MsgID{0, -4} {
		m := transport.NewMem(2)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
		for i := 0; i < 3; i++ {
			if _, err := p.Invoke(inc); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Handle(doneFrame(1, mid)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("done frame with mid %d: err = %v, want codec.ErrCorrupt", mid, err)
		}
		if _, err := p.Invoke(inc); err != nil {
			t.Fatal(err)
		}
		got := mids(t, m.Endpoint(1))
		if want := []model.MsgID{1, 3, 5, 7}; !reflect.DeepEqual(got, want) {
			t.Fatalf("after a mid %d frame node 1 received mids %v, want %v", mid, got, want)
		}
	}

	// A snapshot covering mid 0 and m4 installs; the joiner's next mid must
	// sort after m4.
	m := transport.NewMem(2)
	p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false, transport.WithCatchUp(alg.DecodeState))
	if err := p.CatchUp(); err != nil {
		t.Fatal(err)
	}
	snap := transport.Snapshot{Covered: []model.MsgID{0, 4}, State: alg.New().Init().AppendBinary(nil)}
	if err := p.Handle(transport.Frame{Kind: transport.KindSnapshot, MID: 3, From: 0, Payload: transport.EncodeSnapshot(snap)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(inc); err != nil {
		t.Fatal(err)
	}
	if got := mids(t, m.Endpoint(0)); len(got) != 1 || got[0] <= 4 {
		t.Fatalf("after installing a snapshot covering mids 0 and 4 the joiner sent mids %v, want one above m4", got)
	}
}

// TestReplicaErrorPaths drives each refusal of the replica layer once: what
// it rejects, and whether the error wraps codec.ErrCorrupt (wire damage or a
// routing bug) or reports a misuse.
func TestReplicaErrorPaths(t *testing.T) {
	alg := algFor(t, "counter")
	inc := model.Op{Name: spec.OpInc}
	effector := func(t *testing.T) []byte {
		t.Helper()
		_, eff, err := alg.New().Prepare(inc, alg.New().Init(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return eff.AppendBinary(nil)
	}
	// joiner is node 1 of a 2-node Mem group with its snapshot request out.
	joiner := func(t *testing.T) *transport.Peer {
		t.Helper()
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), false, transport.WithCatchUp(alg.DecodeState))
		if err := p.CatchUp(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	snapshot := func(mid model.MsgID, s transport.Snapshot) transport.Frame {
		s.State = alg.New().Init().AppendBinary(nil)
		return transport.Frame{Kind: transport.KindSnapshot, MID: mid, From: 0, Payload: transport.EncodeSnapshot(s)}
	}
	cases := []struct {
		name    string
		run     func(t *testing.T) error
		corrupt bool
		want    string
	}{
		{"frame for another object", func(t *testing.T) error {
			p := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), false)
			return p.Handle(transport.Frame{Kind: transport.KindEffector, Obj: 3, MID: 1, From: 0, Payload: effector(t)})
		}, true, "object 3 frame delivered to the object 0 replica"},
		{"effector the registered decoder rejects", func(t *testing.T) error {
			m := transport.NewMem(2)
			reject := func([]byte) (crdt.Effector, error) { return nil, errors.New("unknown tag") }
			p := transport.NewPeer(alg.New(), reject, m.Endpoint(0), false)
			_, err := p.Invoke(inc)
			if p.Issued() != 0 || m.PendingTo(1) != 0 {
				t.Fatalf("refused invoke issued %d and queued %d frames", p.Issued(), m.PendingTo(1))
			}
			return err
		}, false, "does not decode with the registered codec: unknown tag"},
		{"catch-up without WithCatchUp", func(t *testing.T) error {
			return transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), false).CatchUp()
		}, false, "not built with WithCatchUp"},
		{"snapshot suffix frame for another object", func(t *testing.T) error {
			p := joiner(t)
			err := p.Handle(snapshot(2, transport.Snapshot{Suffix: []transport.Frame{
				{Kind: transport.KindEffector, Obj: 2, MID: 1, From: 0, Payload: effector(t)},
			}}))
			if st := p.SnapshotStats(); !st.Installed || p.Applied() != 0 {
				t.Fatalf("the state should install and the foreign suffix frame stay unapplied: %+v, applied %d", st, p.Applied())
			}
			return err
		}, true, "snapshot suffix frame 0 is scoped to object 2, not 0"},
		{"later response covers an unapplied mid", func(t *testing.T) error {
			p := joiner(t)
			if err := p.Handle(snapshot(2, transport.Snapshot{})); err != nil {
				t.Fatal(err)
			}
			return p.Handle(snapshot(4, transport.Snapshot{Covered: []model.MsgID{9}}))
		}, false, "covers unapplied frame m9 after install — compaction frontier violated"},
		{"receiver started before any Register", func(t *testing.T) error {
			n, err := transport.NewNode(transport.NewMem(2).Endpoint(0), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = n.StartReceiver()
			return err
		}, false, "register every object before starting the receiver"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run(t)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to contain %q", err, c.want)
			}
			if errors.Is(err, codec.ErrCorrupt) != c.corrupt {
				t.Fatalf("errors.Is(%v, codec.ErrCorrupt) = %t, want %t", err, !c.corrupt, c.corrupt)
			}
		})
	}
}

// TestPeerRejectsSentinelElement: an rga effector frame whose element is
// the sentinel ◦ is corrupt. Fig 2's assume keeps ◦ out of the tree, and a
// tree holding it under one of its own descendants would send every read
// round forever. Handle refuses the frame with codec.ErrCorrupt, the state
// stays as it was, and the replica still reads.
func TestPeerRejectsSentinelElement(t *testing.T) {
	alg := algFor(t, "rga")
	p := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), alg.NeedsCausal)
	a := model.Str("a")
	frame := func(mid model.MsgID, eff crdt.Effector) transport.Frame {
		return transport.Frame{Kind: transport.KindEffector, MID: mid, From: 0, Payload: eff.AppendBinary(nil)}
	}
	if err := p.Handle(frame(1, rga.AddAftEff{A: spec.Sentinel, I: model.Stamp{N: 1}, B: a})); err != nil {
		t.Fatal(err)
	}
	before := p.CanonicalState()
	err := p.Handle(frame(3, rga.AddAftEff{A: a, I: model.Stamp{N: 2, Node: 1}, B: spec.Sentinel}))
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("AddAft(a,(2,t1),◦): err = %v, want codec.ErrCorrupt", err)
	}
	if !bytes.Equal(p.CanonicalState(), before) || p.Applied() != 1 {
		t.Fatalf("the refused frame changed the replica: applied %d", p.Applied())
	}
	got, err := p.Invoke(model.Op{Name: spec.OpRead})
	if want := model.List(a); err != nil || !got.Equal(want) {
		t.Fatalf("read = %s, %v; want %s", got, err, want)
	}
}

// TestPeerAppliedMemoryBounded pins the applied set to the frontier, not the
// history: a counter replica that handles 200 000 in-order effector frames
// from two origins retains less than 1 MB more heap afterwards, and no mid
// waits above its origin's base. The mids are real Lamport mids whose
// sequence skips ahead now and then, as an origin's does after it observes a
// higher mid. A set of every applied mid grew by about 29 B a frame.
func TestPeerAppliedMemoryBounded(t *testing.T) {
	const n, frames = 3, 200_000
	alg := algFor(t, "counter")
	_, eff, err := alg.New().Prepare(model.Op{Name: spec.OpInc}, alg.New().Init(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := eff.AppendBinary(nil)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	p := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(n).Endpoint(0), false)
	var seq [n]int
	before := heap()
	for i := 0; i < frames; i++ {
		from := model.NodeID(1 + i%2)
		seq[from]++
		if i%5 == 4 {
			seq[from]++ // a skipped sequence number, as after a higher mid
		}
		mid := model.MsgID(seq[from]*n + int(from) + 1)
		if err := p.Handle(transport.Frame{Kind: transport.KindEffector, MID: mid, From: from, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	grown := heap() - before
	if p.Applied() != frames {
		t.Fatalf("applied %d of %d frames", p.Applied(), frames)
	}
	if grown >= 1<<20 {
		t.Fatalf("retained heap grew by %d B over %d frames (%.1f B a frame), want under 1 MB", grown, frames, float64(grown)/frames)
	}
	if g := transport.PeerGaps(p); g != 0 {
		t.Fatalf("%d in-order mids wait above their origin's base", g)
	}
	runtime.KeepAlive(p)
}
