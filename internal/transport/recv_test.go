package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// testMeshAddrs builds an n-node unix address table in a fresh temp dir.
func testMeshAddrs(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
	}
	return addrs
}

// listenMesh brings up a full mesh of endpoints concurrently, failing the
// test on any Listen error. opts[i] configures endpoint i.
func listenMesh(t *testing.T, addrs []string, opts [][]transport.StreamOption) []*transport.Stream {
	t.Helper()
	ends := make([]*transport.Stream, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts[i]...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
	}
	return ends
}

// TestReceiverStreamOrderAndBalance runs the full zero-copy path over a unix
// pair: pooled container decode, multi-shard dispatch, per-object FIFO. The
// handler checks every payload byte at apply time — a recycled or corrupted
// pooled buffer cannot pass — and the per-object MID sequences must replay
// the broadcast order exactly.
func TestReceiverStreamOrderAndBalance(t *testing.T) {
	const (
		objs   = 8
		total  = 400
		shards = 4
	)
	addrs := testMeshAddrs(t, 2)
	var man transport.Manifest
	for o := 0; o < objs; o++ {
		man = append(man, transport.ObjectSpec{ID: transport.ObjID(o), Name: fmt.Sprintf("o%d", o), Kind: "bench"})
	}
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithManifest(man), transport.WithBatching(transport.BatchPolicy{MaxFrames: 8})},
		{transport.WithManifest(man), transport.WithReceiver(transport.RecvPolicy{Workers: shards})},
	})
	defer ends[0].Close()
	defer ends[1].Close()

	var mu sync.Mutex
	seq := make(map[transport.ObjID][]model.MsgID)
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{Workers: shards}, func(f transport.Frame) error {
		for _, b := range f.Payload {
			if b != byte(f.MID) {
				return fmt.Errorf("frame %d: payload byte %d, want %d", f.MID, b, byte(f.MID))
			}
		}
		mu.Lock()
		seq[f.Obj] = append(seq[f.Obj], f.MID)
		mu.Unlock()
		return nil
	})
	// The Receiver owns the receive side now: a stray Recv must refuse loudly.
	if _, _, err := ends[1].Recv(false); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("Recv on an endpoint a Receiver drains: err = %v, want pipeline refusal", err)
	}

	for i := 0; i < total; i++ {
		mid := model.MsgID(i + 1)
		body := bytes.Repeat([]byte{byte(mid)}, 64)
		f := transport.Frame{Kind: transport.KindEffector, Obj: transport.ObjID(i % objs), MID: mid, From: 0, Payload: body}
		if err := ends[0].Broadcast(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := ends[0].Flush(); err != nil {
		t.Fatal(err)
	}
	ends[0].Close() // clean hangup: the pipeline drains and reports done

	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not drain after the sender hung up")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if !st.Exhausted {
		t.Error("pipeline drained but not marked exhausted")
	}
	if err := st.Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
	if got := st.TotalApplied(); got != total {
		t.Fatalf("applied %d frames, want %d", got, total)
	}
	// Per-object FIFO: each object's MIDs in broadcast order, every frame
	// pinned to the same shard as its object mates.
	got := 0
	for o := transport.ObjID(0); o < objs; o++ {
		mids := seq[o]
		got += len(mids)
		for i := 1; i < len(mids); i++ {
			if mids[i] <= mids[i-1] {
				t.Fatalf("object %d: MID %d delivered after %d — per-object order broken", o, mids[i], mids[i-1])
			}
		}
	}
	if got != total {
		t.Fatalf("handlers saw %d frames, want %d", got, total)
	}
	for i, sh := range st.Shards {
		if sh.MaxQueue > transport.RecvQueueFrames+1 {
			t.Errorf("shard %d: max queue depth %d exceeds the %d-frame bound", i, sh.MaxQueue, transport.RecvQueueFrames+1)
		}
	}
}

// TestReceiverBackpressureStream pins the backpressure contract on sockets: a
// slow-apply object must stall the reader — bounded queue depth, no drop, no
// reorder — while a fast object on another shard keeps applying and finishes
// long before the slow one.
func TestReceiverBackpressureStream(t *testing.T) {
	const (
		queue  = transport.RecvQueueFrames
		perObj = 3 * queue
	)
	addrs := testMeshAddrs(t, 2)
	man := transport.Manifest{
		{ID: 0, Name: "slow", Kind: "bench"},
		{ID: 1, Name: "fast", Kind: "bench"},
	}
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithManifest(man)},
		{transport.WithManifest(man), transport.WithReceiver(transport.RecvPolicy{Workers: 2})},
	})
	defer ends[0].Close()
	defer ends[1].Close()

	var mu sync.Mutex
	seq := make(map[transport.ObjID][]model.MsgID)
	var slowDone, fastDone time.Time
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{Workers: 2}, func(f transport.Frame) error {
		if f.Obj == 0 {
			time.Sleep(2 * time.Millisecond) // the slow apply
		}
		mu.Lock()
		seq[f.Obj] = append(seq[f.Obj], f.MID)
		if len(seq[f.Obj]) == perObj {
			if f.Obj == 0 {
				slowDone = time.Now()
			} else {
				fastDone = time.Now()
			}
		}
		mu.Unlock()
		return nil
	})

	for i := 0; i < perObj; i++ {
		for o := transport.ObjID(0); o < 2; o++ {
			f := transport.Frame{
				Kind: transport.KindEffector, Obj: o,
				MID: model.MsgID(i*2 + int(o) + 1), From: 0,
				Payload: []byte{byte(i)},
			}
			if err := ends[0].Broadcast(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	ends[0].Close()
	select {
	case <-r.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("pipeline did not drain")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if err := st.Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
	for o := transport.ObjID(0); o < 2; o++ {
		mids := seq[o]
		if len(mids) != perObj {
			t.Fatalf("object %d: applied %d frames, want %d — frames dropped", o, len(mids), perObj)
		}
		for i := 1; i < len(mids); i++ {
			if mids[i] <= mids[i-1] {
				t.Fatalf("object %d: MID %d after %d — reordered under backpressure", o, mids[i], mids[i-1])
			}
		}
	}
	// Bounded memory: with three queues' worth of frames outstanding per
	// object, the high-water mark proves the dispatcher stalled instead of
	// buffering.
	for i, sh := range st.Shards {
		if sh.MaxQueue > queue+1 {
			t.Errorf("shard %d: max queue depth %d exceeds the bound %d — backpressure leaked", i, sh.MaxQueue, queue+1)
		}
	}
	if !fastDone.Before(slowDone) {
		t.Error("fast object did not finish before the slow one — shards not applying independently")
	}
}

// TestReceiverBackpressureMem pins the same contract on the deterministic Mem
// transport: the clamped single shard applies in the virtual clock's order,
// bounded by the queue, dropping and reordering nothing — and a rerun applies
// the identical sequence.
func TestReceiverBackpressureMem(t *testing.T) {
	run := func() ([]string, transport.RecvStats, int) {
		const perObj = 2 * transport.RecvQueueFrames
		m := transport.NewMem(2)
		e0 := m.Endpoint(0)
		e1 := m.Endpoint(1, transport.WithReceiver(transport.RecvPolicy{Workers: 4}))
		for i := 0; i < perObj; i++ {
			for o := transport.ObjID(0); o < 2; o++ {
				f := transport.Frame{
					Kind: transport.KindEffector, Obj: o,
					MID: model.MsgID(i*2 + int(o) + 1), From: 0,
					Payload: []byte{byte(i)},
				}
				if err := e0.Broadcast(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		var mu sync.Mutex
		var order []string
		r := transport.NewReceiver(e1, transport.RecvPolicy{Workers: 4}, func(f transport.Frame) error {
			if f.Obj == 0 {
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			order = append(order, fmt.Sprintf("%d/%d", f.Obj, f.MID))
			mu.Unlock()
			return nil
		})
		select {
		case <-r.Done():
		case <-time.After(15 * time.Second):
			t.Fatal("Mem pipeline did not drain")
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		return order, r.Stats(), e1.Stats().TotalRecv().Frames
	}

	order1, st, recvFrames := run()
	if st.Workers != 1 {
		t.Fatalf("Mem pipeline ran %d shards, want the deterministic 1", st.Workers)
	}
	if err := st.Balance(recvFrames); err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		if sh.MaxQueue > transport.RecvQueueFrames+1 {
			t.Errorf("max queue depth %d exceeds the bound %d", sh.MaxQueue, transport.RecvQueueFrames+1)
		}
	}
	order2, _, _ := run()
	if strings.Join(order1, " ") != strings.Join(order2, " ") {
		t.Fatalf("Mem pipeline reruns diverged:\n  %v\n  %v", order1, order2)
	}
}

// TestNodePipelineMeshConverges is the replica-layer integration: three OS
// sockets-mesh nodes replicate four mixed-kind objects with the receive
// pipeline applying concurrently against live Invokes on the owning
// goroutine, and every node must still quiesce to byte-identical per-object
// states with balanced pipeline ledgers.
func TestNodePipelineMeshConverges(t *testing.T) {
	const nodes = 3
	man := multiplexManifest()
	addrs := testMeshAddrs(t, nodes)
	opts := make([][]transport.StreamOption, nodes)
	for i := range opts {
		opts[i] = []transport.StreamOption{
			transport.WithRecvTimeout(5 * time.Second),
			transport.WithManifest(man),
			transport.WithBatching(transport.BatchPolicy{MaxFrames: 4}),
			transport.WithReceiver(transport.RecvPolicy{Workers: 3}),
		}
	}
	ends := listenMesh(t, addrs, opts)
	ns := make([]*transport.Node, nodes)
	for i := 0; i < nodes; i++ {
		n, err := transport.NewNode(ends[i], man)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		for _, spec := range man {
			alg := algFor(t, spec.Kind)
			if _, err := n.Register(spec.ID, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.StartReceiver(); err != nil {
			t.Fatal(err)
		}
		ns[i] = n
	}

	// The pipeline owns the receive side now.
	if _, err := ns[0].Step(false); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("Step on a pipelined node: err = %v, want pipeline refusal", err)
	}
	if _, err := ns[0].StartReceiver(); err == nil {
		t.Fatal("second StartReceiver did not refuse")
	}
	if _, err := ns[0].Register(1, algFor(t, "counter").New(), algFor(t, "counter").DecodeEffector, false); err == nil {
		t.Fatal("Register after StartReceiver did not refuse")
	}

	// Each node invokes its share of every object's script while the shard
	// workers apply inbound frames concurrently — the contended path -race
	// must hold the line on.
	var wg sync.WaitGroup
	invokeErrs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for oi, spec := range man {
				alg := algFor(t, spec.Kind)
				script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, 8, int64(300+oi), alg.NeedsCausal)
				for _, sop := range script {
					if sop.Node != model.NodeID(i) {
						continue
					}
					p, _ := ns[i].Peer(spec.ID)
					if _, err := p.Invoke(sop.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						invokeErrs <- fmt.Errorf("node %d obj %d: %w", i, spec.ID, err)
						return
					}
				}
			}
			for _, id := range ns[i].Objects() {
				p, _ := ns[i].Peer(id)
				if err := p.Done(); err != nil {
					invokeErrs <- fmt.Errorf("node %d done %d: %w", i, id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(invokeErrs)
	for err := range invokeErrs {
		t.Fatal(err)
	}
	for i, n := range ns {
		if err := n.RunToQuiescence(15 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
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
	// Pipeline ledgers balance against the wire totals at quiescence: every
	// received frame dispatched to exactly one shard and applied.
	for i, n := range ns {
		st := n.Receiver().Stats()
		wire := n.Transport().Stats()
		if err := st.Balance(wire.TotalRecv().Frames); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestStartReceiverDefaultsToOneShard pins the single receive path: a Stream
// built without WithReceiver feeds the same receive queue as one built with
// it, so Node.StartReceiver runs one shard over it and applies every frame.
func TestStartReceiverDefaultsToOneShard(t *testing.T) {
	const ops = 5
	addrs := testMeshAddrs(t, 2)
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithRecvTimeout(5 * time.Second)},
		{transport.WithRecvTimeout(5 * time.Second)},
	})
	alg := algFor(t, "counter")
	ns := make([]*transport.Node, 2)
	for i, st := range ends {
		n, err := transport.NewNode(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if _, err := n.Register(0, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
			t.Fatal(err)
		}
		ns[i] = n
	}
	if ns[1].Receiver() != nil {
		t.Fatal("Receiver() non-nil before StartReceiver")
	}
	r, err := ns[1].StartReceiver()
	if err != nil {
		t.Fatalf("StartReceiver without WithReceiver: %v", err)
	}
	if w := r.Stats().Workers; w != 1 {
		t.Fatalf("StartReceiver without WithReceiver ran %d shards, want 1", w)
	}
	p0, _ := ns[0].Peer(0)
	for i := 0; i < ops; i++ {
		if _, err := p0.Invoke(model.Op{Name: spec.OpInc, Arg: model.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p0.Done(); err != nil {
		t.Fatal(err)
	}
	if err := ns[1].RunToQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p1, _ := ns[1].Peer(0)
	if got := p1.Applied(); got != ops {
		t.Fatalf("applied %d of %d effectors", got, ops)
	}
	if !bytes.Equal(p1.CanonicalState(), p0.CanonicalState()) {
		t.Fatal("receiver's state differs from the sender's")
	}
	ends[1].Close()
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not stop after Close")
	}
	if err := r.Stats().Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
}

// TestNewReceiverWithoutPolicy drives NewReceiver directly over a Stream
// built without WithReceiver: it must apply every frame the peer sent before
// hanging up, in order, with a balanced ledger.
func TestNewReceiverWithoutPolicy(t *testing.T) {
	addrs := testMeshAddrs(t, 2)
	ends := listenMesh(t, addrs, [][]transport.StreamOption{{}, {}})
	defer ends[1].Close()
	var mu sync.Mutex
	var mids []model.MsgID
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{Workers: 1}, func(f transport.Frame) error {
		mu.Lock()
		mids = append(mids, f.MID)
		mu.Unlock()
		return nil
	})
	for mid := model.MsgID(1); mid <= 3; mid++ {
		if err := ends[0].Broadcast(transport.Frame{Kind: transport.KindEffector, MID: mid, From: 0, Payload: []byte{byte(mid)}}); err != nil {
			t.Fatal(err)
		}
	}
	ends[0].Close() // clean hangup: the pipeline drains and reports done
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not drain after the sender hung up")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []model.MsgID{1, 2, 3}; fmt.Sprint(mids) != fmt.Sprint(want) {
		t.Fatalf("applied mids %v, want %v", mids, want)
	}
	if err := r.Stats().Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
}

// TestListenFailureLeaksNoGoroutine fails Listen in each of its validation
// steps — a bad address, an invalid manifest, a misdeclared late joiner — and
// requires every failed call to leave no goroutine behind.
func TestListenFailureLeaksNoGoroutine(t *testing.T) {
	good := testMeshAddrs(t, 2)
	for _, c := range []struct {
		name  string
		addrs []string
		opts  []transport.StreamOption
	}{
		{"bad address", []string{good[0], "nonsense"}, nil},
		{"invalid manifest", good, []transport.StreamOption{transport.WithManifest(transport.Manifest{{ID: 1, Kind: "counter"}})}},
		{"misdeclared late joiner", good, []transport.StreamOption{transport.WithLateJoiners(5)}},
	} {
		opts := append([]transport.StreamOption{transport.WithReceiver(transport.RecvPolicy{Workers: 2})}, c.opts...)
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			st, err := transport.Listen(0, c.addrs, opts...)
			if err == nil {
				st.Close()
				t.Fatalf("%s: Listen succeeded", c.name)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after 20 failed Listens, %d before", c.name, runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	}
}

// TestStreamExhaustionSentinel pins the sentinel: once every peer hangs up
// with the queue drained, Recv reports ErrExhausted (same message text the
// pre-pipeline error carried).
func TestStreamExhaustionSentinel(t *testing.T) {
	addrs := testMeshAddrs(t, 2)
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithRecvTimeout(5 * time.Second)},
		{transport.WithRecvTimeout(5 * time.Second)},
	})
	defer ends[1].Close()
	ends[0].Close()
	for {
		_, ok, err := ends[1].Recv(true)
		if err != nil {
			if !errors.Is(err, transport.ErrExhausted) {
				t.Fatalf("err = %v, want ErrExhausted", err)
			}
			if !strings.Contains(err.Error(), "every peer hung up with the frame queue drained") {
				t.Fatalf("exhaustion message changed: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("Recv reported no frame without an error")
		}
	}
}
