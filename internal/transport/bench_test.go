package transport_test

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/transport"
)

// benchAddrs builds a two-node address table for the given network flavour:
// unix sockets in a fresh temp dir, or TCP loopback ports grabbed by binding
// and releasing ephemeral listeners.
func benchAddrs(b *testing.B, network string) []string {
	b.Helper()
	addrs := make([]string, 2)
	switch network {
	case "unix":
		dir := b.TempDir()
		for i := range addrs {
			addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
		}
	case "tcp":
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			addrs[i] = "tcp:" + ln.Addr().String()
			ln.Close()
		}
	default:
		b.Fatalf("unknown network %q", network)
	}
	return addrs
}

// BenchmarkStreamThroughput measures one-way frame throughput over a real
// two-node socket mesh as the batch size and payload size sweep: node 0
// broadcasts b.N effector frames under the given batch policy, node 1
// receives them all. batch=1 is the unbatched baseline (one wire write per
// frame); larger batches coalesce frames into one container per flush, so
// the syscall cost amortises. ns/op is the per-frame cost end to end; the
// frames/s metric is its inverse, which the CI perf gate tracks via
// BENCH_transport.json.
func BenchmarkStreamThroughput(b *testing.B) {
	for _, network := range []string{"unix", "tcp"} {
		for _, batch := range []int{1, 8, 32} {
			for _, payload := range []int{64, 1024} {
				name := fmt.Sprintf("%s/batch=%d/payload=%d", network, batch, payload)
				b.Run(name, func(b *testing.B) {
					benchStreamThroughput(b, network, batch, payload, 1)
				})
			}
		}
		// Objects dimension: 8 objects' frames round-robined over the same
		// handshaked manifest mesh, coalescing into the same batch
		// containers — the per-frame cost should track the objs=1 batch=8
		// rows, since the object ID is one varint on the wire and the flush
		// loop is shared, not per-object.
		for _, payload := range []int{64, 1024} {
			name := fmt.Sprintf("%s/batch=8/payload=%d/objs=8", network, payload)
			b.Run(name, func(b *testing.B) {
				benchStreamThroughput(b, network, 8, payload, 8)
			})
		}
		// Workers dimension: the same objs=8 mesh with the receive pipeline
		// applying frames through a fixed-cost handler (a calibrated
		// fingerprint loop standing in for a CRDT effector). workers=1 is the
		// single-shard serial baseline; workers=4 spreads the 8 objects two
		// per shard, so apply cost parallelises while per-object order holds.
		// The CI gate requires the workers=4 row to beat workers=1 by ≥1.5×
		// frames/s (equivalently, ns/op ratio) on unix when the runner has
		// ≥4 CPUs; on smaller runners the gate relaxes to a sanity ratio,
		// since even a pure-CPU fan-out cannot reach 1.5× there (see
		// EXPERIMENTS.md).
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/batch=8/payload=64/objs=8/workers=%d", network, workers)
			b.Run(name, func(b *testing.B) {
				benchStreamPipeline(b, network, 8, 64, 8, workers)
			})
		}
		// Tail-latency dimension: a quiet object (every 9th frame) shares
		// large cap-triggered flushes with a chatty one, and the reported
		// ns/op is the quiet object's p99 enqueue→wire delay from the
		// scheduler's histogram — not throughput. At weights 1:1 the quiet
		// frames drain in fair rotation; at 8:1 the scheduler moves them into
		// the flush's earliest containers, which must show up as a lower p99
		// for free (same frames, same wire bytes, different drain order).
		for _, w := range []int{1, 8} {
			name := fmt.Sprintf("%s/quiet-p99/weights=%d:1", network, w)
			b.Run(name, func(b *testing.B) {
				benchQuietTailLatency(b, network, w)
			})
		}
	}
}

func benchStreamThroughput(b *testing.B, network string, batch, payload, objs int) {
	addrs := benchAddrs(b, network)
	var man transport.Manifest
	if objs > 1 {
		for o := 0; o < objs; o++ {
			man = append(man, transport.ObjectSpec{
				ID: transport.ObjID(o), Name: fmt.Sprintf("o%d", o), Kind: "bench",
			})
		}
	}
	ends := make([]*transport.Stream, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		opts := []transport.StreamOption{transport.WithRecvTimeout(30 * time.Second)}
		// No delay timer: the sender saturates the frame cap, and the final
		// Flush drains the tail, so a timer would only add scheduler noise to
		// the measurement.
		if i == 0 && batch > 1 {
			opts = append(opts, transport.WithBatching(transport.BatchPolicy{MaxFrames: batch}))
		}
		if man != nil {
			opts = append(opts, transport.WithManifest(man))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("listen %d: %v", i, err)
		}
	}
	defer ends[0].Close()
	defer ends[1].Close()

	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		for got := 0; got < b.N; {
			_, ok, err := ends[1].Recv(true)
			if err != nil {
				done <- err
				return
			}
			if !ok {
				done <- fmt.Errorf("receiver drained after %d/%d frames", got, b.N)
				return
			}
			got++
		}
		done <- nil
	}()

	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := transport.Frame{Kind: transport.KindEffector, Obj: transport.ObjID(i % objs), MID: model.MsgID(i + 1), From: 0, Payload: body}
		if err := ends[0].Broadcast(f); err != nil {
			b.Fatal(err)
		}
	}
	if err := ends[0].Flush(); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// benchApplyWork is the fixed per-frame apply cost of the pipeline benchmark:
// ~25µs of fingerprint hashing standing in for a CRDT effector decode+apply.
// The cost must dwarf the per-frame wire cost (~3µs) for the workers
// dimension to measure parallel apply rather than channel traffic — the
// apply-parallel ceiling on C cores is C·a/(a+s), so a must be several times
// s for the speedup gate to have headroom — and it must be pure CPU so the
// speedup is Amdahl-clean.
func benchApplyWork(payload []byte) uint64 {
	var acc uint64
	for i := 0; i < 600; i++ {
		acc ^= codec.Fingerprint(payload)
	}
	return acc
}

// benchStreamPipeline is benchStreamThroughput with the receive pipeline on
// the receiving end: node 1 runs a Receiver whose handler burns a calibrated
// fixed cost per frame, and the measurement closes when the b.N-th frame has
// been applied (not merely received). workers=1 serialises every object on
// one shard; workers>1 lets distinct objects apply concurrently.
func benchStreamPipeline(b *testing.B, network string, batch, payload, objs, workers int) {
	addrs := benchAddrs(b, network)
	var man transport.Manifest
	for o := 0; o < objs; o++ {
		man = append(man, transport.ObjectSpec{
			ID: transport.ObjID(o), Name: fmt.Sprintf("o%d", o), Kind: "bench",
		})
	}
	pol := transport.RecvPolicy{Workers: workers}
	ends := make([]*transport.Stream, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		opts := []transport.StreamOption{
			transport.WithRecvTimeout(30 * time.Second),
			transport.WithManifest(man),
		}
		if i == 0 {
			opts = append(opts, transport.WithBatching(transport.BatchPolicy{MaxFrames: batch}))
		} else {
			opts = append(opts, transport.WithReceiver(pol))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("listen %d: %v", i, err)
		}
	}
	defer ends[0].Close()
	defer ends[1].Close()

	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i)
	}
	var applied atomic.Int64
	var sink atomic.Uint64
	drained := make(chan struct{})
	r := transport.NewReceiver(ends[1], pol, func(f transport.Frame) error {
		sink.Add(benchApplyWork(f.Payload))
		if applied.Add(1) == int64(b.N) {
			close(drained)
		}
		return nil
	})

	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := transport.Frame{Kind: transport.KindEffector, Obj: transport.ObjID(i % objs), MID: model.MsgID(i + 1), From: 0, Payload: body}
		if err := ends[0].Broadcast(f); err != nil {
			b.Fatal(err)
		}
	}
	if err := ends[0].Flush(); err != nil {
		b.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Minute):
		b.Fatalf("pipeline applied %d/%d frames before timing out", applied.Load(), b.N)
	}
	b.StopTimer()
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// benchQuietTailLatency measures how long a quiet object's frames sit in the
// shared pending backlog before reaching the wire, with the chatty/quiet
// weight ratio as the swept dimension. Node 0 broadcasts b.N 64-byte frames
// — every 9th on the quiet object, the rest on the chatty one — under a
// 144-frame cap chunked into 8-frame containers. The benchmark's ns/op is
// overridden with the quiet object's p99 enqueue→wire delay, so the CI gate
// tracks the tail directly.
func benchQuietTailLatency(b *testing.B, network string, quietWeight int) {
	const (
		chatty = transport.ObjID(1)
		quiet  = transport.ObjID(2)
	)
	addrs := benchAddrs(b, network)
	man := transport.Manifest{
		{ID: chatty, Name: "chatty", Kind: "bench"},
		{ID: quiet, Name: "quiet", Kind: "bench"},
	}
	ends := make([]*transport.Stream, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		opts := []transport.StreamOption{
			transport.WithRecvTimeout(30 * time.Second),
			transport.WithManifest(man),
		}
		if i == 0 {
			opts = append(opts,
				transport.WithBatching(transport.BatchPolicy{MaxFrames: 144}),
				transport.WithScheduler(transport.SchedPolicy{
					Weights:     map[transport.ObjID]int{chatty: 1, quiet: quietWeight},
					ChunkFrames: 8,
				}))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("listen %d: %v", i, err)
		}
	}
	defer ends[0].Close()
	defer ends[1].Close()

	body := make([]byte, 64)
	for i := range body {
		body[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		for got := 0; got < b.N; {
			_, ok, err := ends[1].Recv(true)
			if err != nil {
				done <- err
				return
			}
			if !ok {
				done <- fmt.Errorf("receiver drained after %d/%d frames", got, b.N)
				return
			}
			got++
		}
		done <- nil
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := chatty
		if i%9 == 0 {
			obj = quiet
		}
		f := transport.Frame{Kind: transport.KindEffector, Obj: obj, MID: model.MsgID(i + 1), From: 0, Payload: body}
		if err := ends[0].Broadcast(f); err != nil {
			b.Fatal(err)
		}
	}
	if err := ends[0].Flush(); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := ends[0].Stats()
	if err := st.SchedBalance(); err != nil {
		b.Fatal(err)
	}
	q := st.Sched.Objects[quiet]
	if q == nil || q.DelaySamples == 0 {
		b.Fatal("no quiet delay samples recorded")
	}
	// The gated metric is the quiet tail, not throughput: override ns/op.
	b.ReportMetric(float64(q.DelayQuantile(0.99)), "ns/op")
	b.ReportMetric(float64(q.DelaySamples), "samples")
}

// BenchmarkPeerHandle prices the peer layer's receive path on its own: a
// follower's Peer.Handle over Mem — dedup, the hold-back check, decode and
// apply — fed in-order effector frames from one origin peer. counter frames
// carry no deps; aw-set is causal, so its frames carry the origin's frontier,
// and they alternate add and remove of one element; rga frames insert fresh
// elements at the head of a follower that already holds 2000 elements,
// read-heavy's preload, installed from a snapshot. With the timer stopped,
// each chunk of 128 frames comes from a fresh origin for a fresh follower,
// so the state, and with it the apply cost, stays at its starting size
// whatever b.N.
func BenchmarkPeerHandle(b *testing.B) {
	for _, c := range []struct {
		name    string
		preload int
		op      func(i int) model.Op
	}{
		{"counter", 0, func(int) model.Op { return model.Op{Name: spec.OpInc} }},
		{"aw-set", 0, func(i int) model.Op {
			if i%2 == 1 {
				return model.Op{Name: spec.OpRemove, Arg: model.Int(1)}
			}
			return model.Op{Name: spec.OpAdd, Arg: model.Int(1)}
		}},
		{"rga", 2000, func(i int) model.Op { return headInsert(fmt.Sprintf("x%d", i)) }},
	} {
		alg, ok := registry.ByName(c.name)
		if !ok {
			b.Fatalf("%s not registered", c.name)
		}
		var opts []transport.PeerOption
		var install transport.Frame
		if c.preload > 0 {
			opts = append(opts, transport.WithCatchUp(alg.DecodeState))
			install = transport.Frame{Kind: transport.KindSnapshot, MID: 1, From: 0, Payload: transport.EncodeSnapshot(transport.Snapshot{
				State: preloaded(b, alg, c.preload),
			})}
		}
		b.Run(c.name, func(b *testing.B) {
			frames := make([]transport.Frame, 0, 128)
			applied := 0
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(frames) {
				b.StopTimer()
				m := transport.NewMem(2)
				origin := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), alg.NeedsCausal)
				ep := m.Endpoint(1)
				follower := transport.NewPeer(alg.New(), alg.DecodeEffector, ep, alg.NeedsCausal, opts...)
				if c.preload > 0 {
					if err := follower.CatchUp(); err != nil {
						b.Fatal(err)
					}
					if err := follower.Handle(install); err != nil {
						b.Fatal(err)
					}
				}
				frames = frames[:0]
				for len(frames) < min(cap(frames), b.N-done) {
					if _, err := origin.Invoke(c.op(len(frames))); err != nil {
						b.Fatal(err)
					}
					f, ok, err := ep.Recv(false)
					if err != nil || !ok {
						b.Fatalf("origin's frame not queued: ok=%v err=%v", ok, err)
					}
					frames = append(frames, f)
				}
				b.StartTimer()
				for _, f := range frames {
					if err := follower.Handle(f); err != nil {
						b.Fatal(err)
					}
				}
				applied += follower.Applied()
			}
			b.StopTimer()
			if applied != b.N {
				b.Fatalf("followers applied %d of %d frames", applied, b.N)
			}
		})
	}
}

// preloaded returns the canonical bytes of an rga state holding n elements,
// inserted at the head as node 1's operations, so their stamps never
// collide with the origin's (node 0's).
func preloaded(b *testing.B, alg registry.Algorithm, n int) []byte {
	b.Helper()
	obj := alg.New()
	s := obj.Init()
	for i := 0; i < n; i++ {
		_, eff, err := obj.Prepare(headInsert(fmt.Sprintf("p%d", i)), s, 1, model.MsgID(2*i+2))
		if err != nil {
			b.Fatal(err)
		}
		s = eff.Apply(s)
	}
	return s.AppendBinary(nil)
}

// headInsert is rga's addAfter(◦, e): e becomes the list's first element.
func headInsert(e string) model.Op {
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(spec.Sentinel, model.Str(e))}
}
