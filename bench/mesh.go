package main

// Every transport constructor and option the benchmark uses is called in
// this file, so a change to how endpoints are configured edits only here.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/transport"
)

// meshNodes is the replica count: the smallest mesh in which causal
// hold-back can trigger over per-pair FIFO streams.
const meshNodes = 3

// meshConfig is what a mesh workload fixes about the transport.
type meshConfig struct {
	network   string   // "tcp" (loopback) or "unix" (abstract sockets)
	kinds     []string // registry algorithm of each object; object IDs start at 1
	maxFrames int      // BatchPolicy.MaxFrames
}

// listenStagger separates the replicas' Listen calls.
const listenStagger = 2 * time.Millisecond

// recvPolicy gives every node one apply shard: three replicas already run
// three apply goroutines on the two-core machine the numbers come from.
var recvPolicy = transport.RecvPolicy{Workers: 1}

// mesh is three in-process replicas of every object, fully connected.
type mesh struct {
	streams []*transport.Stream
	nodes   []*transport.Node
	recvs   []*transport.Receiver
	peers   [][]*transport.Peer // [node][object ID]; index 0 unused
}

// startMesh connects the replicas, registers every object through the
// harness's wrappers, and starts one receive pipeline per node whose handler
// is the harness's (see recvState.handle for why it replaces
// Node.StartReceiver).
func startMesh(cfg meshConfig, h *harness, tag string) (*mesh, error) {
	addrs, err := meshAddrs(cfg.network, tag)
	if err != nil {
		return nil, err
	}
	man := make(transport.Manifest, len(cfg.kinds))
	for i, k := range cfg.kinds {
		man[i] = transport.ObjectSpec{ID: transport.ObjID(i + 1), Name: fmt.Sprintf("%s-%d", k, i+1), Kind: k}
	}
	opts := []transport.StreamOption{
		transport.WithManifest(man),
		transport.WithBatching(transport.BatchPolicy{MaxFrames: cfg.maxFrames, MaxDelay: time.Millisecond}),
		transport.WithReceiver(recvPolicy),
	}
	m := &mesh{streams: make([]*transport.Stream, meshNodes)}
	errs := make([]error, meshNodes)
	var wg sync.WaitGroup
	for i := range m.streams {
		if i > 0 {
			// Node i dials every lower node, and a dial that beats the
			// listener retries only after 25ms: staggering the starts keeps
			// set-up time from depending on that race.
			time.Sleep(listenStagger)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.streams[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts...)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.closeStreams()
		return nil, fmt.Errorf("connecting the mesh: %w", err)
	}
	for i, st := range m.streams {
		var t transport.Transport = st
		if h.tr != nil {
			t = &tracedStream{Stream: st, tr: h.tr, track: h.track, node: i}
		}
		node, err := transport.NewNode(t, man)
		if err != nil {
			m.closeStreams()
			return nil, err
		}
		peers := make([]*transport.Peer, len(cfg.kinds)+1)
		for j, kind := range cfg.kinds {
			id := transport.ObjID(j + 1)
			alg, ok := registry.ByName(kind)
			if !ok {
				m.closeStreams()
				return nil, fmt.Errorf("no registry algorithm %q", kind)
			}
			dec := alg.DecodeEffector
			if h.tr != nil {
				dec = h.tr.decoder(dec, i, id)
			}
			obj := &harnessObject{Object: alg.New(), h: h, obj: id, mirror: h.mirrors[i][id]}
			if peers[id], err = node.Register(id, obj, dec, alg.NeedsCausal); err != nil {
				m.closeStreams()
				return nil, err
			}
		}
		h.recv[i].node = node
		m.nodes = append(m.nodes, node)
		m.peers = append(m.peers, peers)
	}
	for i, st := range m.streams {
		m.recvs = append(m.recvs, transport.NewReceiver(st, recvPolicy, h.recv[i].handle))
	}
	return m, nil
}

// flush forces every node's pending batch onto the wire.
func (m *mesh) flush() error {
	for _, n := range m.nodes {
		if err := n.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// close hangs every node up and waits for its receive pipeline to drain.
func (m *mesh) close() error {
	m.closeStreams()
	var errs []error
	for i, r := range m.recvs {
		select {
		case <-r.Done():
			if err := r.Err(); err != nil {
				errs = append(errs, fmt.Errorf("node %d receiver: %w", i, err))
			}
		case <-time.After(10 * time.Second):
			errs = append(errs, fmt.Errorf("node %d receiver did not drain within 10s of closing", i))
		}
	}
	return errors.Join(errs...)
}

func (m *mesh) closeStreams() {
	for _, st := range m.streams {
		if st != nil {
			st.Close()
		}
	}
}

// meshAddrs returns one listen address per replica. All traffic stays on the
// machine: unix addresses are abstract sockets (no file is created), tcp
// ones are loopback ports taken by binding and releasing an ephemeral
// listener.
func meshAddrs(network, tag string) ([]string, error) {
	addrs := make([]string, meshNodes)
	for i := range addrs {
		switch network {
		case "unix":
			addrs[i] = fmt.Sprintf("unix:@repro-bench-%d-%s-%d", os.Getpid(), tag, i)
		case "tcp":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addrs[i] = "tcp:" + ln.Addr().String()
			ln.Close()
		default:
			return nil, fmt.Errorf("unknown network %q", network)
		}
	}
	return addrs, nil
}

// memPeers builds one replica of alg per object in objs over the
// deterministic in-memory network, for tests that control delivery order
// frame by frame.
func memPeers(alg registry.Algorithm, objs []crdt.Object) (*transport.Mem, []*transport.Peer) {
	mem := transport.NewMem(len(objs))
	peers := make([]*transport.Peer, len(objs))
	for i, obj := range objs {
		peers[i] = transport.NewPeer(obj, alg.DecodeEffector, mem.Endpoint(model.NodeID(i)), alg.NeedsCausal)
	}
	return mem, peers
}
