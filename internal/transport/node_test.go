package transport_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// multiplexManifest is the four-object routing table the Node tests share:
// two standalone objects plus two that a product reassembles at read time.
func multiplexManifest() transport.Manifest {
	return transport.Manifest{
		{ID: 1, Name: "accounts", Kind: "counter"},
		{ID: 2, Name: "tags", Kind: "g-set"},
		{ID: 3, Name: "cart.qty", Kind: "counter"},
		{ID: 4, Name: "cart.items", Kind: "g-set"},
	}
}

// algFor maps a manifest kind to its registry bundle.
func algFor(t *testing.T, kind string) registry.Algorithm {
	t.Helper()
	alg, ok := registry.ByName(kind)
	if !ok {
		t.Fatalf("no algorithm %q in the registry", kind)
	}
	return alg
}

// TestNodeMultiplexMem replicates four objects of mixed algorithms across
// three nodes over one shared batched Mem endpoint each, interleaving every
// object's operations, and checks per-object convergence plus the balanced
// ledger: every per-object counter sums to the endpoint total it splits,
// because the same helper updates both.
func TestNodeMultiplexMem(t *testing.T) {
	const nodes = 3
	man := multiplexManifest()
	m := transport.NewMem(nodes)
	policies := []transport.BatchPolicy{
		{}, // unbatched
		{MaxFrames: 4},
		{MaxFrames: 64},
	}
	ns := make([]*transport.Node, nodes)
	for i := 0; i < nodes; i++ {
		n, err := transport.NewNode(m.Endpoint(model.NodeID(i), transport.WithBatching(policies[i])), man)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range man {
			alg := algFor(t, spec.Kind)
			if _, err := n.Register(spec.ID, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
				t.Fatal(err)
			}
		}
		ns[i] = n
	}

	// One script per object, all interleaved through the shared endpoints.
	rng := rand.New(rand.NewSource(11))
	issued := map[transport.ObjID]int{}
	for oi, spec := range man {
		alg := algFor(t, spec.Kind)
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, 9, int64(100+oi), alg.NeedsCausal)
		for _, sop := range script {
			p, _ := ns[sop.Node].Peer(spec.ID)
			if _, err := p.Invoke(sop.Op); err != nil {
				if errors.Is(err, crdt.ErrAssume) {
					continue
				}
				t.Fatalf("obj %d invoke on node %d: %v", spec.ID, sop.Node, err)
			}
			issued[spec.ID]++
			// Pump a random node: routing is cross-object, so any one
			// object's traffic progresses all of them.
			for k := 0; k < 2; k++ {
				if _, err := ns[rng.Intn(nodes)].Step(false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, n := range ns {
		for _, id := range n.Objects() {
			p, _ := n.Peer(id)
			if err := p.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, n := range ns {
		if err := n.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	// Per-object convergence: byte-identical canonical states on all nodes.
	for _, spec := range man {
		p0, _ := ns[0].Peer(spec.ID)
		want := p0.CanonicalState()
		for i := 1; i < nodes; i++ {
			p, _ := ns[i].Peer(spec.ID)
			if got := p.CanonicalState(); !bytes.Equal(got, want) {
				t.Errorf("object %d (%s): node %d state % x != node 0 state % x", spec.ID, spec.Kind, i, got, want)
			}
		}
	}

	// Read-time product reassembly: the cart is objects 3 and 4 stitched
	// back together; equal parts mean equal products, byte for byte.
	var cart0 []byte
	for i := 0; i < nodes; i++ {
		qty, _ := ns[i].Peer(3)
		items, _ := ns[i].Peer(4)
		enc := codec.AppendBytes(nil, qty.CanonicalState())
		enc = codec.AppendBytes(enc, items.CanonicalState())
		if i == 0 {
			cart0 = enc
		} else if !bytes.Equal(enc, cart0) {
			t.Errorf("node %d: reassembled cart % x != node 0 cart % x", i, enc, cart0)
		}
	}

	// Ledger balance: the object split and the per-peer totals are two
	// views of the same frames, updated together.
	for i, n := range ns {
		st := n.Transport().Stats()
		if err := st.SchedBalance(); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
		for _, spec := range man {
			if issued[spec.ID] > 0 && st.Objects[spec.ID].SentFrames == 0 {
				t.Errorf("node %d: object %d issued ops cluster-wide but has no sent frames anywhere in the split", i, spec.ID)
			}
		}
	}
}

// TestNodeUnknownObjectRejected pins strict routing: a frame for an object
// the manifest never declared is corruption, not negotiable traffic.
func TestNodeUnknownObjectRejected(t *testing.T) {
	m := transport.NewMem(2)
	man := transport.Manifest{{ID: 1, Name: "accounts", Kind: "counter"}}
	n, err := transport.NewNode(m.Endpoint(1), man)
	if err != nil {
		t.Fatal(err)
	}
	alg := algFor(t, "counter")
	if _, err := n.Register(1, alg.New(), alg.DecodeEffector, false); err != nil {
		t.Fatal(err)
	}
	m.Put(1, &transport.Queued{Frame: transport.Frame{
		Kind: transport.KindEffector, Obj: 99, MID: 1, From: 0, Payload: []byte("x"),
	}})
	if _, err := n.Step(false); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("routing a frame for undeclared object 99: err=%v, want ErrCorrupt", err)
	}
}

// TestNodeRegisterValidation pins the demux's registration contract.
func TestNodeRegisterValidation(t *testing.T) {
	m := transport.NewMem(2)
	alg := algFor(t, "counter")

	if _, err := transport.NewNode(m.Endpoint(0), transport.Manifest{
		{ID: 2, Name: "a", Kind: "counter"}, {ID: 1, Name: "b", Kind: "counter"}, {ID: 1, Name: "c", Kind: "counter"},
	}); err == nil {
		t.Error("NewNode accepted a manifest with duplicate IDs")
	}

	n, err := transport.NewNode(m.Endpoint(0), transport.Manifest{{ID: 1, Name: "accounts", Kind: "counter"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(5, alg.New(), alg.DecodeEffector, false); err == nil {
		t.Error("Register accepted an object the manifest does not declare")
	}
	if _, err := n.Register(1, alg.New(), alg.DecodeEffector, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(1, alg.New(), alg.DecodeEffector, false); err == nil {
		t.Error("Register accepted a duplicate object")
	}

	// Empty manifest: only the single-object degenerate case (object 0).
	n0, err := transport.NewNode(m.Endpoint(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n0.Register(3, alg.New(), alg.DecodeEffector, false); err == nil {
		t.Error("empty-manifest node accepted a nonzero object ID")
	}
	if _, err := n0.Register(0, alg.New(), alg.DecodeEffector, false); err != nil {
		t.Errorf("empty-manifest node rejected object 0: %v", err)
	}
}

// TestNodeStreamManifestCrossValidation: a Node over a Stream must carry the
// same manifest the stream handshook with — the routing table and the wire
// contract are checked against each other.
func TestNodeStreamManifestCrossValidation(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	man := transport.Manifest{{ID: 1, Name: "accounts", Kind: "counter"}}
	type res struct {
		st  *transport.Stream
		err error
	}
	ch := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(id model.NodeID) {
			st, err := transport.Listen(id, addrs, transport.WithManifest(man))
			ch <- res{st, err}
		}(model.NodeID(i))
	}
	var streams []*transport.Stream
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.st.Close()
		streams = append(streams, r.st)
	}
	other := transport.Manifest{{ID: 1, Name: "accounts", Kind: "g-set"}}
	if _, err := transport.NewNode(streams[0], other); err == nil {
		t.Error("NewNode accepted a manifest differing from the stream's handshake manifest")
	}
	if _, err := transport.NewNode(streams[0], man); err != nil {
		t.Errorf("NewNode rejected the stream's own manifest: %v", err)
	}
}

// TestMemMultiObjectKeying: the in-memory network keys queued frames by
// (object, mid), so the same Lamport mid in two objects' spaces is two
// distinct deliverable frames, surfaced in deterministic object order.
func TestMemMultiObjectKeying(t *testing.T) {
	m := transport.NewMem(2)
	e0, e1 := m.Endpoint(0), m.Endpoint(1)
	for _, obj := range []transport.ObjID{2, 1} {
		err := e0.Broadcast(transport.Frame{Kind: transport.KindEffector, Obj: obj, MID: 7, From: 0, Payload: []byte{byte(obj)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.PendingTo(1); got != 2 {
		t.Fatalf("pending frames to node 1 = %d, want 2 (same mid, two objects)", got)
	}
	for _, want := range []transport.ObjID{1, 2} {
		f, ok, err := e1.Recv(false)
		if err != nil || !ok {
			t.Fatalf("recv: ok=%v err=%v", ok, err)
		}
		if f.Obj != want || f.MID != 7 {
			t.Fatalf("recv obj=%d mid=%d, want obj=%d mid=7 (deterministic (ready, obj, mid) order)", f.Obj, f.MID, want)
		}
	}
}

// TestNodeAwaitCatchUpNamesPendingObjects: a catch-up that cannot resolve
// must name exactly which object IDs are still waiting — in registration
// order — not just count them, so a stalled multi-object joiner is
// diagnosable from the error alone.
func TestNodeAwaitCatchUpNamesPendingObjects(t *testing.T) {
	man := transport.Manifest{
		{ID: 5, Name: "accounts", Kind: "counter"},
		{ID: 7, Name: "tags", Kind: "g-set"},
	}
	m := transport.NewMem(2)
	n, err := transport.NewNode(m.Endpoint(0), man)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range man {
		alg := algFor(t, spec.Kind)
		if _, err := n.Register(spec.ID, alg.New(), alg.DecodeEffector, alg.NeedsCausal,
			transport.WithCatchUp(alg.DecodeState)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Nobody serves snapshots on the other end, so the deadline (already in
	// the past) must surface both stalled objects by ID.
	err = n.AwaitCatchUp(-time.Nanosecond)
	if err == nil {
		t.Fatal("AwaitCatchUp resolved without any snapshot response")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want transport.ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "[5 7]") {
		t.Fatalf("timeout error does not name the pending objects in order: %v", err)
	}
}

// TestNodeErrorsNameOpenGap: a joiner stuck on a gap says so. Object 0's
// joiner installs node 1's response, which holds origin 0's mid 1 but not its
// mid 4, then applies mid 7 live; origin 0 never answers, so the gap stays
// open. Object 1's catch-up never resolves either. Both waits name origin 0's
// gap; once mid 4 closes it, their messages are exactly those of a node
// without gaps.
func TestNodeErrorsNameOpenGap(t *testing.T) {
	man := transport.Manifest{{ID: 0, Name: "accounts", Kind: "counter"}, {ID: 1, Name: "visits", Kind: "counter"}}
	alg := algFor(t, "counter")
	m := transport.NewMem(3)
	peers := make([]*transport.Peer, 3) // object 0 at each node
	var joiner *transport.Node
	for i := range peers {
		n, err := transport.NewNode(m.Endpoint(model.NodeID(i)), man)
		if err != nil {
			t.Fatal(err)
		}
		opt := transport.WithSnapshotPolicy(transport.SnapshotPolicy{})
		if i == 2 {
			opt, joiner = transport.WithCatchUp(alg.DecodeState), n
		}
		for _, obj := range man {
			p, err := n.Register(obj.ID, alg.New(), alg.DecodeEffector, alg.NeedsCausal, opt)
			if err != nil {
				t.Fatal(err)
			}
			if obj.ID == 0 {
				peers[i] = p
			}
		}
	}
	origin, server, stuck := peers[0], peers[1], peers[2]
	deliver := memDeliver(t, m)
	drop := func(dst model.NodeID, mid model.MsgID) {
		t.Helper()
		if !m.Remove(dst, mid) {
			t.Fatalf("mid %s not queued for node %s", mid, dst)
		}
	}
	inc := func() {
		t.Helper()
		if _, err := origin.Invoke(model.Op{Name: spec.OpInc}); err != nil {
			t.Fatal(err)
		}
	}

	inc() // mid 1
	deliver(1, server, 1)
	drop(2, 1) // the joiner has not connected yet
	inc()      // mid 4
	mid4, ok := m.Get(2, 4)
	if !ok {
		t.Fatal("mid 4 was not queued for the joiner")
	}
	drop(2, 4)
	if err := joiner.CatchUp(); err != nil { // object 0's request is mid 3
		t.Fatal(err)
	}
	drop(0, 3) // origin 0 never answers
	deliver(1, server, 3)
	deliver(2, stuck, 5) // node 1's response installs mid 1
	inc()                // mid 7
	deliver(2, stuck, 7)

	check := func(catchUp, quiesce string) {
		t.Helper()
		if err := joiner.AwaitCatchUp(5 * time.Second); err == nil || err.Error() != catchUp {
			t.Fatalf("AwaitCatchUp: %v\nwant %s", err, catchUp)
		}
		if err := joiner.RunToQuiescence(5 * time.Second); err == nil || err.Error() != quiesce {
			t.Fatalf("RunToQuiescence: %v\nwant %s", err, quiesce)
		}
	}
	check("transport: network drained while object(s) [1] awaited snapshot responses; object 0, gap: origin 0 above m1 (1 frame)",
		"transport: network drained but 2 of 2 objects not quiescent: object 0 (done 0/2 peers, applied 2, held 0, gap: origin 0 above m1 (1 frame)), object 1 (done 0/2 peers, applied 0, held 0)")
	// Past their deadline the waits time out instead, naming the gap too.
	if err := joiner.AwaitCatchUp(-time.Nanosecond); !errors.Is(err, transport.ErrTimeout) || !strings.HasSuffix(err.Error(), "; object 0, gap: origin 0 above m1 (1 frame)") {
		t.Fatalf("AwaitCatchUp past its deadline: %v", err)
	}
	if err := joiner.RunToQuiescence(-time.Nanosecond); !errors.Is(err, transport.ErrTimeout) || !strings.Contains(err.Error(), "held 0, gap: origin 0 above m1 (1 frame))") {
		t.Fatalf("RunToQuiescence past its deadline: %v", err)
	}
	if err := stuck.Handle(mid4.Frame); err != nil {
		t.Fatal(err)
	}
	check("transport: network drained while object(s) [1] awaited snapshot responses",
		"transport: network drained but 2 of 2 objects not quiescent: object 0 (done 0/2 peers, applied 3, held 0), object 1 (done 0/2 peers, applied 0, held 0)")
}

// TestNodeQuiescenceErrorNamesStuckObjects: a node that cannot quiesce must
// name each stuck object — in registration order, with its peer's progress —
// and only those. Node 2 never announces Done for object 2, so node 0 can
// quiesce object 1 but is left one Done short on object 2.
func TestNodeQuiescenceErrorNamesStuckObjects(t *testing.T) {
	const nodes = 3
	man := transport.Manifest{
		{ID: 1, Name: "accounts", Kind: "counter"},
		{ID: 2, Name: "visits", Kind: "counter"},
	}
	alg := algFor(t, "counter")
	m := transport.NewMem(nodes)
	ns := make([]*transport.Node, nodes)
	for i := range ns {
		n, err := transport.NewNode(m.Endpoint(model.NodeID(i)), man)
		if err != nil {
			t.Fatal(err)
		}
		// Registration order 2, 1: the error must follow it, not the IDs.
		for _, id := range []transport.ObjID{2, 1} {
			if _, err := n.Register(id, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
				t.Fatal(err)
			}
		}
		ns[i] = n
	}
	p, _ := ns[1].Peer(2)
	if _, err := p.Invoke(model.Op{Name: spec.OpInc, Arg: model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		for _, id := range n.Objects() {
			if i == 2 && id == 2 {
				continue
			}
			p, _ := n.Peer(id)
			if err := p.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A deadline already past fires before node 0 pumps a frame: both
	// objects are stuck, named in registration order.
	err := ns[0].RunToQuiescence(-time.Nanosecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want transport.ErrTimeout", err)
	}
	want := "2 of 2 objects not quiescent: object 2 (done 0/2 peers, applied 0, held 0), object 1 (done 0/2 peers, applied 0, held 0)"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("timeout error = %v\nwant it to contain %q", err, want)
	}

	// Pumping drains the network with object 1 quiescent and object 2
	// missing node 2's Done.
	err = ns[0].RunToQuiescence(time.Second)
	if err == nil {
		t.Fatal("node 0 quiesced without node 2's Done on object 2")
	}
	want = "1 of 2 objects not quiescent: object 2 (done 1/2 peers, applied 1, held 0)"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("drain error = %v\nwant it to contain %q", err, want)
	}
	if strings.Contains(err.Error(), "object 1") {
		t.Fatalf("drain error names the quiescent object 1: %v", err)
	}
}
