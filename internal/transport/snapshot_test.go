package transport_test

import (
	"bytes"
	"errors"
	"reflect"
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

// listedTransport pins the connected-peer set a Mem endpoint reports, so a
// test can model a socket mesh where the late joiner is not admitted yet:
// the compaction frontier then only waits for the listed peers, exactly as
// Stream.ConnectedPeers would report before the joiner's admission.
type listedTransport struct {
	transport.Transport
	peers []model.NodeID
}

func (l listedTransport) ConnectedPeers() []model.NodeID { return l.peers }

// sampleSnapshot builds a non-trivial snapshot from real counter effectors.
func sampleSnapshot(t testing.TB) transport.Snapshot {
	t.Helper()
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	obj := alg.New()
	st := obj.Init()
	var suffix []transport.Frame
	for i, mid := range []model.MsgID{7, 9} {
		_, eff, err := obj.Prepare(model.Op{Name: spec.OpInc}, st, model.NodeID(i), mid)
		if err != nil {
			t.Fatal(err)
		}
		suffix = append(suffix, transport.Frame{
			Kind: transport.KindEffector, MID: mid, From: model.NodeID(i),
			Deps: []model.MsgID{1, 3}, Payload: eff.AppendBinary(nil),
		})
	}
	return transport.Snapshot{
		Covered: []model.MsgID{1, 3, 4},
		State:   st.AppendBinary(nil),
		Done:    []transport.DoneCount{{Node: 0, Count: 2}, {Node: 2, Count: 0}},
		Suffix:  suffix,
	}
}

// TestSnapshotCodecRoundTrip checks the snapshot payload round-trips
// losslessly and encodes canonically (unsorted input, same bytes).
func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	enc := transport.EncodeSnapshot(snap)
	got, err := transport.DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
	// Canonical: scrambled covered/done orders must encode byte-equal.
	scrambled := snap
	scrambled.Covered = []model.MsgID{4, 1, 3}
	scrambled.Done = []transport.DoneCount{{Node: 2, Count: 0}, {Node: 0, Count: 2}}
	if !bytes.Equal(transport.EncodeSnapshot(scrambled), enc) {
		t.Fatal("scrambled input did not encode canonically")
	}
	// The empty snapshot (a serving peer with nothing applied) round-trips too.
	empty := transport.Snapshot{State: []byte{}}
	got, err = transport.DecodeSnapshot(transport.EncodeSnapshot(empty))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got.Covered) != 0 || len(got.Suffix) != 0 || len(got.Done) != 0 {
		t.Fatalf("empty snapshot decoded non-empty: %+v", got)
	}
}

// TestSnapshotDecodeTruncation cuts a valid payload at every strict prefix:
// each must be rejected with codec.ErrCorrupt — a transfer that dies
// mid-stream can never install a half snapshot.
func TestSnapshotDecodeTruncation(t *testing.T) {
	enc := transport.EncodeSnapshot(sampleSnapshot(t))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := transport.DecodeSnapshot(enc[:cut]); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("cut at %d/%d: err=%v, want codec.ErrCorrupt", cut, len(enc), err)
		}
	}
}

// TestSnapshotDecodeMalformed rejects structurally broken payloads.
func TestSnapshotDecodeMalformed(t *testing.T) {
	valid := transport.EncodeSnapshot(sampleSnapshot(t))
	doneFrame := transport.Frame{Kind: transport.KindDone, MID: 5, From: 1, Payload: codec.AppendUvarint(nil, 2)}
	cases := []struct {
		name string
		b    []byte
	}{
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"unsorted covered", func() []byte {
			b := codec.AppendUvarint(nil, 2)
			b = codec.AppendUvarint(b, 9)
			b = codec.AppendUvarint(b, 3) // 3 after 9: not ascending
			b = codec.AppendBytes(b, nil)
			b = codec.AppendUvarint(b, 0)
			return codec.AppendUvarint(b, 0)
		}()},
		{"duplicate covered", func() []byte {
			b := codec.AppendUvarint(nil, 2)
			b = codec.AppendUvarint(b, 9)
			b = codec.AppendUvarint(b, 9)
			b = codec.AppendBytes(b, nil)
			b = codec.AppendUvarint(b, 0)
			return codec.AppendUvarint(b, 0)
		}()},
		{"unsorted done nodes", func() []byte {
			b := codec.AppendUvarint(nil, 0)
			b = codec.AppendBytes(b, nil)
			b = codec.AppendUvarint(b, 2)
			b = codec.AppendUvarint(b, 1)
			b = codec.AppendUvarint(b, 4)
			b = codec.AppendUvarint(b, 0) // node 0 after node 1
			b = codec.AppendUvarint(b, 2)
			return codec.AppendUvarint(b, 0)
		}()},
		{"non-effector suffix frame", func() []byte {
			b := codec.AppendUvarint(nil, 0)
			b = codec.AppendBytes(b, nil)
			b = codec.AppendUvarint(b, 0)
			b = codec.AppendUvarint(b, 1)
			return codec.AppendBytes(b, doneFrame.Append(nil))
		}()},
		{"garbage suffix frame", func() []byte {
			b := codec.AppendUvarint(nil, 0)
			b = codec.AppendBytes(b, nil)
			b = codec.AppendUvarint(b, 0)
			b = codec.AppendUvarint(b, 1)
			return codec.AppendBytes(b, []byte{0xff, 0xfe})
		}()},
	}
	for _, tc := range cases {
		if _, err := transport.DecodeSnapshot(tc.b); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err=%v, want codec.ErrCorrupt", tc.name, err)
		}
	}
}

// TestCheckpointAdvance exercises the shared shadow replica directly: mids
// fold in ascending order whatever the call order, and covered mids are
// skipped.
func TestCheckpointAdvance(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	obj := alg.New()
	effs := map[model.MsgID]crdt.Effector{}
	st := obj.Init()
	for i, mid := range []model.MsgID{2, 5, 8} {
		_, eff, err := obj.Prepare(model.Op{Name: spec.OpInc}, st, model.NodeID(i%2), mid)
		if err != nil {
			t.Fatal(err)
		}
		effs[mid] = eff
		st = eff.Apply(st) // reference: all three applied
	}
	subset := func(mids ...model.MsgID) map[model.MsgID]crdt.Effector {
		out := map[model.MsgID]crdt.Effector{}
		for _, mid := range mids {
			out[mid] = effs[mid]
		}
		return out
	}
	ck := transport.NewCheckpoint(obj.Init())
	ck.Advance(subset(8, 2))
	if got := ck.CoveredSorted(); !reflect.DeepEqual(got, []model.MsgID{2, 8}) {
		t.Fatalf("covered %v, want [2 8]", got)
	}
	// Re-advancing covered mids is a no-op; the fresh one still folds in.
	ck.Advance(subset(2, 5, 8))
	if !bytes.Equal(ck.State.AppendBinary(nil), st.AppendBinary(nil)) {
		t.Fatal("checkpoint state differs from applying the same set directly")
	}
	// A clone is independent.
	cp := ck.Clone()
	cp.Covered[99] = true
	if ck.Covered[99] {
		t.Fatal("clone shares the covered map")
	}
}

// memDeliver returns a function that hands peer p the copy of object 0's
// mid queued for node dst on m, failing the test if none is queued or p
// refuses it: a hand-picked delivery order on the deterministic Mem.
func memDeliver(t *testing.T, m *transport.Mem) func(dst model.NodeID, p *transport.Peer, mid model.MsgID) {
	return func(dst model.NodeID, p *transport.Peer, mid model.MsgID) {
		t.Helper()
		q, ok := m.Take(dst, mid)
		if !ok {
			t.Fatalf("mid %s not queued for node %s (queued: %v)", mid, dst, m.Mids(dst))
		}
		if err := p.Handle(q.Frame); err != nil {
			t.Fatalf("node %s handling mid %s: %v", dst, mid, err)
		}
	}
}

// pumpDrain steps every node until none makes progress: the deterministic
// Mem equivalent of letting the mesh go idle.
func pumpDrain(t testing.TB, nodes ...*transport.Node) {
	t.Helper()
	for {
		progress := false
		for _, n := range nodes {
			ok, err := n.Step(false)
			if err != nil {
				t.Fatal(err)
			}
			progress = progress || ok
		}
		if !progress {
			return
		}
	}
}

// TestSnapshotCatchUpOverMem runs the whole snapshot protocol on the
// deterministic Mem: two serving peers replicate a prefix (compacting under
// SnapshotPolicy), a fresh peer catches up via CatchUp and
// Node.AwaitCatchUp, joins the replication, and everyone converges
// byte-identically. The Every=0 leg serves the full log as suffix —
// catch-up without a checkpoint.
func TestSnapshotCatchUpOverMem(t *testing.T) {
	for _, name := range []string{"counter", "aw-set", "rga"} {
		for _, every := range []int{2, 0} {
			alg, ok := registry.ByName(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			t.Run(name, func(t *testing.T) {
				m := transport.NewMem(3)
				pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: every})
				sn, server := hostSolo(listedTransport{m.Endpoint(0), []model.NodeID{1}}, alg, pol)
				hn, helper := hostSolo(listedTransport{m.Endpoint(1), []model.NodeID{0}}, alg, pol)
				early := []*transport.Peer{server, helper}
				script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), 3, 18, 11, alg.NeedsCausal)
				var lateOps []model.Op
				for _, so := range script {
					if so.Node == 2 {
						lateOps = append(lateOps, so.Op)
						continue
					}
					if _, err := early[so.Node].Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						t.Fatalf("invoke %v at %s: %v", so.Op, so.Node, err)
					}
					pumpDrain(t, sn, hn)
				}
				if every > 0 {
					if st := server.SnapshotStats(); st.Checkpoints == 0 || st.LogTruncated == 0 {
						t.Fatalf("server never compacted before the join: %+v", st)
					}
				}
				jn, joiner := hostSolo(m.Endpoint(2), alg, transport.WithCatchUp(alg.DecodeState))
				if err := joiner.CatchUp(); err != nil {
					t.Fatal(err)
				}
				pumpDrain(t, sn, hn) // the servers answer the request
				if err := jn.AwaitCatchUp(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				st := joiner.SnapshotStats()
				if !st.Installed || st.FellBack {
					t.Fatalf("joiner did not install a snapshot: %+v", st)
				}
				if every > 0 && st.InstallCovered == 0 {
					t.Fatalf("compacting leg installed nothing via the checkpoint: %+v", st)
				}
				if every == 0 && (st.InstallCovered != 0 || st.InstallSuffix == 0) {
					t.Fatalf("full-replay leg should serve everything as suffix: %+v", st)
				}
				for _, op := range lateOps {
					if _, err := joiner.Invoke(op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						t.Fatalf("late invoke %v: %v", op, err)
					}
					pumpDrain(t, sn, hn, jn)
				}
				all := []*transport.Peer{server, helper, joiner}
				for _, p := range all {
					if err := p.Done(); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := range []*transport.Node{sn, hn, jn} {
					if err := n.RunToQuiescence(5 * time.Second); err != nil {
						t.Fatalf("peer %d: %v", i, err)
					}
				}
				ref := server.CanonicalState()
				for i, p := range all[1:] {
					if !bytes.Equal(p.CanonicalState(), ref) {
						t.Fatalf("peer %d diverged from the server", i+1)
					}
				}
				if every > 0 {
					total := server.Issued() + server.Applied()
					if got := server.SnapshotStats().LogRetained; got >= total {
						t.Fatalf("retained log %d not bounded below the %d applied frames", got, total)
					}
					// Every leg acknowledges through per-origin watermarks
					// of the frontier deps; both early peers still truncate.
					for i, p := range early {
						if st := p.SnapshotStats(); st.LogTruncated == 0 {
							t.Fatalf("early peer %d never truncated its log: %+v", i, st)
						}
					}
				}
			})
		}
	}
}

// TestSnapshotAckWatermark pins the acknowledgement rule for a causal
// object: a peer's frame acknowledges, per origin, every mid up to the
// highest one it names, named or not. An origin-0 mid above node 1's
// origin-0 watermark is not acknowledged, so compaction keeps it until a
// later frame raises the watermark past it.
func TestSnapshotAckWatermark(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	m := transport.NewMem(2)
	sn, server := hostSolo(m.Endpoint(0), alg, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 1}))
	qn, q := hostSolo(m.Endpoint(1), alg)
	add := func(p *transport.Peer, v int64) {
		t.Helper()
		if _, err := p.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	step := func(n *transport.Node) {
		t.Helper()
		if ok, err := n.Step(false); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	add(server, 1) // mid 1
	add(server, 2) // mid 3
	step(qn)
	step(qn)
	add(server, 3) // mid 5, not yet seen by q
	add(q, 4)      // mid 6, deps [3]: q's origin-0 watermark is 3
	step(sn)
	// Mids 1 and 3 sit at or below the watermark and 6 is q's own; 5 is
	// above it.
	if st := server.SnapshotStats(); st.LogTruncated != 3 || st.LogRetained != 1 {
		t.Fatalf("stats %+v, want 3 truncated and mid 5 retained", st)
	}
	step(qn)
	if err := q.Done(); err != nil {
		t.Fatal(err)
	}
	step(sn) // the done frame's deps [5 6] raise the watermark to 5
	if st := server.SnapshotStats(); st.LogTruncated != 4 || st.LogRetained != 0 {
		t.Fatalf("stats %+v, want all 4 frames truncated", st)
	}
}

// recordingTransport records every frame its endpoint is asked to broadcast.
type recordingTransport struct {
	transport.Transport
	sent *[]transport.Frame
}

func (r recordingTransport) Broadcast(f transport.Frame) error {
	*r.sent = append(*r.sent, f)
	return r.Transport.Broadcast(f)
}

// TestSnapshotDepsBounded pins the deps a non-causal object sends under the
// snapshot protocol: three serving counter peers build history, then a
// catch-up joiner arrives and plays its share. Every effector and Done frame
// any of them broadcasts carries its sender's frontier — at most one mid per
// origin, so at most N deps however long the history.
func TestSnapshotDepsBounded(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	const n = 4
	m := transport.NewMem(n)
	var sent []transport.Frame
	pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 3})
	nodes := make([]*transport.Node, n)
	peers := make([]*transport.Peer, n)
	for i := range n - 1 {
		nodes[i], peers[i] = hostSolo(recordingTransport{m.Endpoint(model.NodeID(i)), &sent}, alg, pol)
	}
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, 40, 3, alg.NeedsCausal)
	var lateOps []model.Op
	for _, so := range script {
		if so.Node == n-1 {
			lateOps = append(lateOps, so.Op)
			continue
		}
		if _, err := peers[so.Node].Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatalf("invoke %v at %s: %v", so.Op, so.Node, err)
		}
		pumpDrain(t, nodes[:n-1]...)
	}
	nodes[n-1], peers[n-1] = hostSolo(recordingTransport{m.Endpoint(n - 1), &sent}, alg, transport.WithCatchUp(alg.DecodeState))
	if err := peers[n-1].CatchUp(); err != nil {
		t.Fatal(err)
	}
	pumpDrain(t, nodes[:n-1]...) // the servers answer the request
	if err := nodes[n-1].AwaitCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, op := range lateOps {
		if _, err := peers[n-1].Invoke(op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatalf("late invoke %v: %v", op, err)
		}
		pumpDrain(t, nodes...)
	}
	for _, p := range peers {
		if err := p.Done(); err != nil {
			t.Fatal(err)
		}
	}
	for i, node := range nodes {
		if err := node.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	checked := 0
	for _, f := range sent {
		if f.Kind != transport.KindEffector && f.Kind != transport.KindDone {
			continue
		}
		checked++
		origins := map[int]bool{}
		for _, d := range f.Deps {
			origins[int(d-1)%n] = true
		}
		if len(f.Deps) > n || len(origins) != len(f.Deps) {
			t.Fatalf("%s frame %s from %s carries deps %v: want at most one mid per origin", transport.KindName(f.Kind), f.MID, f.From, f.Deps)
		}
	}
	if checked < 30 {
		t.Fatalf("checked only %d effector and done frames", checked)
	}
	for i, p := range peers[1:] {
		if !bytes.Equal(p.CanonicalState(), peers[0].CanonicalState()) {
			t.Fatalf("peer %d diverged from peer 0", i+1)
		}
	}
}

// TestSnapshotJoinerGapConverges walks a non-causal catch-up joiner through
// the one case where its applied set is not a per-origin prefix. Origin 0's
// mid 1 never reaches the joiner live; node 1 answers the joiner's request
// before applying it; the joiner applies origin 0's later mid 4 live, so the
// frontier deps of its next frame over-acknowledge mid 1; node 1 compacts
// mid 1 on that acknowledgement. The joiner still converges: node 0 answers
// the same request — which it received before any frame carrying the
// joiner's acknowledgements — with mid 1 in its retained suffix.
func TestSnapshotJoinerGapConverges(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	m := transport.NewMem(3)
	pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 1})
	n0, origin := hostSolo(m.Endpoint(0), alg, pol)
	n1, server := hostSolo(m.Endpoint(1), alg, pol)
	n2, joiner := hostSolo(m.Endpoint(2), alg, transport.WithCatchUp(alg.DecodeState))
	inc := func(p *transport.Peer) {
		t.Helper()
		if _, err := p.Invoke(model.Op{Name: spec.OpInc}); err != nil {
			t.Fatal(err)
		}
	}
	deliver := memDeliver(t, m)

	inc(origin) // mid 1
	if !m.Remove(2, 1) {
		t.Fatal("mid 1 was not queued for the joiner")
	}
	if err := joiner.CatchUp(); err != nil { // request mid 3
		t.Fatal(err)
	}
	deliver(1, server, 3) // node 1 serves without mid 1
	deliver(2, joiner, 5) // and that response installs
	if !joiner.SnapshotStats().Installed {
		t.Fatal("node 1's response did not install")
	}
	inc(origin) // mid 4
	deliver(2, joiner, 4)
	inc(joiner) // mid 9
	ackFrame, ok := m.Get(1, 9)
	if !ok {
		t.Fatal("the joiner's mid 9 is not queued for node 1")
	}
	if got := ackFrame.Frame.Deps; !reflect.DeepEqual(got, []model.MsgID{4}) || joiner.Applied() != 1 {
		t.Fatalf("joiner applied %d remote frames and acknowledges %v: want the gap, mid 4 applied and acknowledged without mid 1", joiner.Applied(), got)
	}
	deliver(1, server, 1)
	deliver(1, server, 4)
	deliver(1, server, 9)
	if st := server.SnapshotStats(); st.LogTruncated != 2 {
		t.Fatalf("node 1 stats %+v: want mids 1 and 4 compacted on the joiner's acknowledgement", st)
	}
	deliver(0, origin, 3) // node 0 serves mids 1 and 4 as suffix
	queued := m.Mids(2)
	if len(queued) != 1 {
		t.Fatalf("queued for the joiner: %v, want node 0's response alone", queued)
	}
	deliver(2, joiner, queued[0])
	if st := joiner.SnapshotStats(); st.ResponsesIgnored != 1 || joiner.Applied() != 2 {
		t.Fatalf("joiner stats %+v, applied %d: want mid 1 applied from node 0's suffix", st, joiner.Applied())
	}
	for _, p := range []*transport.Peer{origin, server, joiner} {
		if err := p.Done(); err != nil {
			t.Fatal(err)
		}
	}
	for i, node := range []*transport.Node{n0, n1, n2} {
		if err := node.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, p := range []*transport.Peer{server, joiner} {
		if !bytes.Equal(p.CanonicalState(), origin.CanonicalState()) {
			t.Fatalf("node %d diverged from node 0", i+1)
		}
	}
	if got := peerAbs(t, alg, joiner); !got.Equal(model.Int(3)) {
		t.Fatalf("joiner converged to %s, want 3 increments", got)
	}
}

// TestSnapshotServingJoinerGap gives TestSnapshotJoinerGapConverges's gap to
// a joiner that also serves snapshots and compacts every frame. Node 1
// answers node 2's request before applying origin 0's mid 1, so node 2 holds
// mids 9 and 17 above a gap at origin 0 and folds only node 1's mid 14, which
// both other peers acknowledged. Node 2 has not admitted node 3 yet, so its
// compaction does not wait for it, and when node 3 asks, node 2 serves mids 9
// and 17 as suffix, not covered: node 3 installs node 2's checkpoint as
// per-origin watermarks, and had they covered mid 9, mid 1 would read as
// applied. Node 3 takes mid 1 from origin 0's response and converges.
func TestSnapshotServingJoinerGap(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	m := transport.NewMem(4)
	pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 1})
	catchUp := transport.WithCatchUp(alg.DecodeState)
	n0, origin := hostSolo(m.Endpoint(0), alg, pol)
	n1, server := hostSolo(listedTransport{m.Endpoint(1), []model.NodeID{0, 2}}, alg, pol)
	n2, joiner := hostSolo(listedTransport{m.Endpoint(2), []model.NodeID{0, 1}}, alg, pol, catchUp)
	n3, late := hostSolo(m.Endpoint(3), alg, catchUp)
	inc := func(p *transport.Peer, mid model.MsgID) {
		t.Helper()
		if _, err := p.Invoke(model.Op{Name: spec.OpInc}); err != nil {
			t.Fatal(err)
		}
		if !m.Remove(3, mid) { // node 3 has not joined yet
			t.Fatalf("mid %s was not queued for node 3 (queued: %v)", mid, m.Mids(3))
		}
	}
	deliver := memDeliver(t, m)

	inc(origin, 1)
	if !m.Remove(2, 1) {
		t.Fatal("mid 1 was not queued for node 2")
	}
	if err := joiner.CatchUp(); err != nil { // request mid 3
		t.Fatal(err)
	}
	m.Remove(3, 3)        // node 3 has not joined yet
	deliver(1, server, 3) // node 1 serves without mid 1: response mid 6
	deliver(0, origin, 3) // node 0 serves mid 1: response mid 5, still in flight
	deliver(2, joiner, 6)
	if !joiner.SnapshotStats().Installed {
		t.Fatal("node 1's response did not install")
	}
	inc(origin, 9)
	deliver(2, joiner, 9)
	deliver(1, server, 1)
	deliver(1, server, 9)
	inc(server, 14) // deps [9]: node 1 acknowledges mid 9
	deliver(2, joiner, 14)
	deliver(0, origin, 14)
	inc(origin, 17) // deps [9 14]: node 0 acknowledges mid 14
	deliver(2, joiner, 17)
	if st := joiner.SnapshotStats(); st.LogTruncated != 1 || st.LogRetained != 2 || transport.PeerGaps(joiner) != 2 {
		t.Fatalf("node 2 stats %+v with %d mids above a gap: want mid 14 folded, mids 9 and 17 kept above the gap", st, transport.PeerGaps(joiner))
	}

	if err := late.CatchUp(); err != nil { // request mid 4
		t.Fatal(err)
	}
	deliver(2, joiner, 4)
	resp, ok := m.Get(3, 23)
	if !ok {
		t.Fatalf("node 2's response is not queued for node 3 (queued: %v)", m.Mids(3))
	}
	snap, err := transport.DecodeSnapshot(resp.Frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var suffix []model.MsgID
	for _, f := range snap.Suffix {
		suffix = append(suffix, f.MID)
	}
	if !reflect.DeepEqual(snap.Covered, []model.MsgID{14}) || !reflect.DeepEqual(suffix, []model.MsgID{9, 17}) {
		t.Fatalf("node 2 served covered %v and suffix %v: want mid 14 covered, mids 9 and 17 above the gap as suffix", snap.Covered, suffix)
	}
	deliver(3, late, 23) // installs node 2's checkpoint
	deliver(0, origin, 4)
	deliver(3, late, 21) // origin 0's suffix fills the gap
	if got := transport.PeerGaps(late); got != 0 || late.Applied() != 4 {
		t.Fatalf("node 3 applied %d frames with %d above a gap: want all 4, the gap closed", late.Applied(), got)
	}
	peers := []*transport.Peer{origin, server, joiner, late}
	for _, p := range peers {
		if err := p.Done(); err != nil {
			t.Fatal(err)
		}
	}
	for i, node := range []*transport.Node{n0, n1, n2, n3} {
		if err := node.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, p := range peers {
		if got := peerAbs(t, alg, p); !got.Equal(model.Int(4)) || transport.PeerGaps(p) != 0 {
			t.Fatalf("node %d converged to %s with %d mids above a gap, want 4 increments and no gap", i, got, transport.PeerGaps(p))
		}
	}
}

// TestSnapshotServedCheckpointOwnsItsState: a catch-up joiner that also
// serves, without compacting, seeds its checkpoint from the response it
// installed and then applies more frames, its own and a peer's, in place.
// The snapshot it serves a later joiner must still carry exactly the
// installed state bytes, so the checkpoint must not share the replica's
// state. Convergence alone cannot show such an alias: g-set adds are
// idempotent, so the served suffix re-applied over a moved-on state would
// still converge.
func TestSnapshotServedCheckpointOwnsItsState(t *testing.T) {
	alg, ok := registry.ByName("g-set")
	if !ok {
		t.Fatal("g-set not registered")
	}
	m := transport.NewMem(3)
	catchUp := transport.WithCatchUp(alg.DecodeState)
	// Node 0 lists no connected peer, so it folds every frame at once.
	_, server := hostSolo(listedTransport{m.Endpoint(0), nil}, alg, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 1}))
	_, joiner := hostSolo(m.Endpoint(1), alg, catchUp, transport.WithSnapshotPolicy(transport.SnapshotPolicy{}))
	_, late := hostSolo(m.Endpoint(2), alg, catchUp)
	add := func(p *transport.Peer, e int64) {
		t.Helper()
		if _, err := p.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(e)}); err != nil {
			t.Fatal(err)
		}
	}
	queued := func(dst model.NodeID) model.MsgID {
		t.Helper()
		mids := m.Mids(dst)
		if len(mids) != 1 {
			t.Fatalf("queued for node %d: %v, want one frame", dst, mids)
		}
		return mids[0]
	}
	served := func(dst model.NodeID) ([]byte, model.MsgID) {
		t.Helper()
		mid := queued(dst)
		q, _ := m.Get(dst, mid)
		snap, err := transport.DecodeSnapshot(q.Frame.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return snap.State, mid
	}
	deliver := memDeliver(t, m)

	for e := int64(1); e <= 2; e++ {
		add(server, e)
		m.Remove(1, queued(1)) // neither joiner has joined yet
		m.Remove(2, queued(2))
	}
	if err := joiner.CatchUp(); err != nil {
		t.Fatal(err)
	}
	m.Remove(2, queued(2))
	deliver(0, server, queued(0))
	installed, resp := served(1)
	deliver(1, joiner, resp)
	if st := joiner.SnapshotStats(); !st.Installed || st.InstallCovered != 2 {
		t.Fatalf("joiner stats %+v: want node 0's checkpoint of both adds installed", st)
	}
	add(server, 3)
	m.Remove(2, queued(2))
	deliver(1, joiner, queued(1))
	add(joiner, 4)
	m.Remove(2, queued(2))
	deliver(0, server, queued(0))
	if bytes.Equal(joiner.CanonicalState(), installed) {
		t.Fatal("the joiner's state did not move on after the install")
	}

	if err := late.CatchUp(); err != nil {
		t.Fatal(err)
	}
	m.Remove(0, queued(0))
	deliver(1, joiner, queued(1))
	state, resp := served(2)
	if !bytes.Equal(state, installed) {
		t.Fatalf("the joiner serves checkpoint state %x, want the %x it installed", state, installed)
	}
	deliver(2, late, resp)
	if !bytes.Equal(late.CanonicalState(), joiner.CanonicalState()) {
		t.Fatal("the late joiner did not converge on the served checkpoint and suffix")
	}
}

// TestSnapshotServeErrorPaths covers the serving-side edges: a peer without
// the snapshot layer ignores requests, duplicates are served once, and a
// serving peer with no checkpoint yet answers with a full-log suffix.
func TestSnapshotServeErrorPaths(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	req := func(from model.NodeID, mid model.MsgID) transport.Frame {
		return transport.Frame{Kind: transport.KindSnapshotRequest, MID: mid, From: from}
	}

	t.Run("no snapshot layer", func(t *testing.T) {
		m := transport.NewMem(2)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
		if err := p.Handle(req(1, 2)); err != nil {
			t.Fatalf("a bare peer must ignore requests, got %v", err)
		}
		if st := p.SnapshotStats(); st.RequestsIgnored != 1 || st.Served != 0 {
			t.Fatalf("stats %+v, want 1 ignored and 0 served", st)
		}
	})

	t.Run("duplicate request served once", func(t *testing.T) {
		m := transport.NewMem(2)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false,
			transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 2}))
		if err := p.Handle(req(1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := p.Handle(req(1, 4)); err != nil {
			t.Fatal(err)
		}
		if st := p.SnapshotStats(); st.Served != 1 || st.DupRequests != 1 {
			t.Fatalf("stats %+v, want served=1 dup=1", st)
		}
	})

	t.Run("no checkpoint yet serves the full log", func(t *testing.T) {
		m := transport.NewMem(2)
		sn, server := hostSolo(m.Endpoint(0), alg, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 100}))
		if _, err := server.Invoke(model.Op{Name: spec.OpInc}); err != nil {
			t.Fatal(err)
		}
		jn, joiner := hostSolo(m.Endpoint(1), alg, transport.WithCatchUp(alg.DecodeState))
		if err := joiner.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if ok, err := sn.Step(true); err != nil || !ok {
			t.Fatalf("server step: ok=%v err=%v", ok, err)
		}
		if err := jn.AwaitCatchUp(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		st := joiner.SnapshotStats()
		if !st.Installed || st.InstallCovered != 0 || st.InstallSuffix != 1 {
			t.Fatalf("stats %+v, want an install with 0 covered and 1 suffix frame", st)
		}
		if !bytes.Equal(joiner.CanonicalState(), server.CanonicalState()) {
			t.Fatal("joiner did not converge")
		}
	})

	t.Run("unsolicited response rejected", func(t *testing.T) {
		m := transport.NewMem(2)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false)
		f := transport.Frame{Kind: transport.KindSnapshot, MID: 1, From: 0,
			Payload: transport.EncodeSnapshot(transport.Snapshot{State: alg.New().Init().AppendBinary(nil)})}
		if err := p.Handle(f); err == nil {
			t.Fatal("an unsolicited snapshot frame must be rejected")
		}
	})
}

// TestSnapshotCorruptFallback corrupts the snapshot response mid-transfer:
// the joiner must reject it with codec.ErrCorrupt, report the fallback, and
// still converge by full replay — the buffered frames release.
func TestSnapshotCorruptFallback(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	corrupt := func(t *testing.T, payload []byte) {
		t.Helper()
		m := transport.NewMem(2)
		server := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
		for i := 0; i < 3; i++ {
			if _, err := server.Invoke(model.Op{Name: spec.OpInc}); err != nil {
				t.Fatal(err)
			}
		}
		jn, joiner := hostSolo(m.Endpoint(1), alg, transport.WithCatchUp(alg.DecodeState))
		if err := joiner.CatchUp(); err != nil {
			t.Fatal(err)
		}
		err := joiner.Handle(transport.Frame{Kind: transport.KindSnapshot, MID: 2, From: 0, Payload: payload})
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("err=%v, want codec.ErrCorrupt", err)
		}
		st := joiner.SnapshotStats()
		if !st.FellBack || st.Installed || st.CorruptResponses != 1 {
			t.Fatalf("stats %+v, want a recorded fallback", st)
		}
		// Full replay still converges: the server's broadcasts are queued.
		for {
			ok, err := jn.Step(false)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if !bytes.Equal(joiner.CanonicalState(), server.CanonicalState()) {
			t.Fatal("joiner did not converge by replay after the fallback")
		}
	}
	t.Run("garbage payload", func(t *testing.T) { corrupt(t, []byte{0xde, 0xad, 0xbe, 0xef}) })
	t.Run("truncated mid-transfer", func(t *testing.T) {
		full := transport.EncodeSnapshot(sampleSnapshot(t))
		corrupt(t, full[:len(full)/2])
	})
}

// TestSnapshotInstallRejectsBadMIDs: a snapshot response carries routing
// input like any frame. A suffix effector whose mid is not positive, or whose
// sender is outside the group, is corrupt: a mid that names no origin is
// never marked applied, so each response carrying it would apply it again. A
// suffix frame of the joiner's own stays legal, since a later response can
// carry it. A covered mid that is not positive names no frame: the install
// skips it, neither counting it nor serving it on from the joiner's own
// checkpoint.
func TestSnapshotInstallRejectsBadMIDs(t *testing.T) {
	alg := algFor(t, "counter")
	obj := alg.New()
	eff := func(from model.NodeID, mid model.MsgID) transport.Frame {
		t.Helper()
		_, e, err := obj.Prepare(model.Op{Name: spec.OpInc}, obj.Init(), from, mid)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Frame{Kind: transport.KindEffector, MID: mid, From: from, Payload: e.AppendBinary(nil)}
	}
	// joiner is node 1 of a 3-node group: it awaits a catch-up and serves
	// snapshots itself.
	joiner := func() (*transport.Mem, *transport.Peer) {
		m := transport.NewMem(3)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false,
			transport.WithCatchUp(alg.DecodeState), transport.WithSnapshotPolicy(transport.SnapshotPolicy{}))
		if err := p.CatchUp(); err != nil {
			t.Fatal(err)
		}
		return m, p
	}
	respond := func(p *transport.Peer, mid model.MsgID, snap transport.Snapshot) error {
		snap.State = obj.Init().AppendBinary(nil)
		return p.Handle(transport.Frame{Kind: transport.KindSnapshot, MID: mid, From: 0, Payload: transport.EncodeSnapshot(snap)})
	}

	_, p := joiner()
	for _, mid := range []model.MsgID{4, 7} {
		if err := respond(p, mid, transport.Snapshot{Suffix: []transport.Frame{eff(0, 0)}}); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("response %s with a mid-0 suffix effector: err = %v, want codec.ErrCorrupt", mid, err)
		}
	}
	if got := p.Applied(); got != 0 {
		t.Fatalf("two responses with the same mid-0 suffix effector applied %d frames, want none", got)
	}
	for _, from := range []model.NodeID{3, -1} {
		_, p := joiner()
		f := eff(0, 4)
		f.From = from
		if err := respond(p, 7, transport.Snapshot{Suffix: []transport.Frame{f}}); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("suffix effector from node %s: err = %v, want codec.ErrCorrupt", from, err)
		}
	}
	_, p = joiner()
	if err := respond(p, 7, transport.Snapshot{Suffix: []transport.Frame{eff(1, 5)}}); err != nil || p.Applied() != 1 {
		t.Fatalf("suffix effector of the joiner's own: err = %v, applied %d, want it applied", err, p.Applied())
	}

	m, p := joiner()
	if err := respond(p, 7, transport.Snapshot{Covered: []model.MsgID{0, 4}}); err != nil {
		t.Fatal(err)
	}
	if st := p.SnapshotStats(); st.InstallCovered != 1 || p.Applied() != 1 {
		t.Fatalf("install of covered mids 0 and 4 counted %d covered, %d applied: want m4 alone", st.InstallCovered, p.Applied())
	}
	if err := p.Handle(transport.Frame{Kind: transport.KindSnapshotRequest, MID: 3, From: 2}); err != nil {
		t.Fatal(err)
	}
	for ep := m.Endpoint(2); ; {
		f, ok, err := ep.Recv(false)
		if err != nil || !ok {
			t.Fatalf("no snapshot response reached node 2: ok=%v err=%v", ok, err)
		}
		if f.Kind != transport.KindSnapshot {
			continue
		}
		served, err := transport.DecodeSnapshot(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(served.Covered, []model.MsgID{4}) {
			t.Fatalf("the joiner served covered %v, want [4]", served.Covered)
		}
		break
	}
}

// TestInvokeRefusedWhileSyncing: between the request and the install the
// replica state is about to be replaced, so local operations must refuse
// instead of issuing effectors from a state that is going away.
func TestInvokeRefusedWhileSyncing(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	m := transport.NewMem(2)
	p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false,
		transport.WithCatchUp(alg.DecodeState))
	if err := p.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(model.Op{Name: spec.OpInc}); err == nil {
		t.Fatal("invoke during catch-up must refuse")
	}
	if st := p.SnapshotStats(); st.Installed || st.FellBack {
		t.Fatal("catch-up cannot be resolved before a response")
	}
}
