package transport

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/crdt"
)

// Node hosts replicated objects on one Transport endpoint and is their only
// receiver: the shared-mesh layer between the object-blind byte movers
// (Stream, Mem) and the per-object replica logic (Peer). One socket pair per
// process pair carries every object's traffic — effectors, snapshot requests
// and responses, done announcements — and the Node demultiplexes inbound
// frames to the Peer registered under each frame's object ID. A single
// object is object 0 of a Node without a manifest.
//
// Every registered Peer sends through the shared endpoint itself, stamping
// its object ID on each frame, so the peers also *share* the endpoint's
// BatchPolicy: broadcasts from different objects coalesce into the same
// batch container, and one flush pays one wire write for all of them.
// Because the Node routes whatever frame surfaces, progress is
// cross-object: a late joiner can sit in object A's snapshot catch-up while
// object B's live traffic keeps applying.
type Node struct {
	t     Transport
	man   Manifest
	peers map[ObjID]*Peer
	order []ObjID

	// pipe, once StartReceiver has run, owns the endpoint's receive side:
	// inbound frames are dispatched to per-object apply shards instead of
	// being pulled through Step. The peers map is frozen from that point
	// (Register refuses), so the shard workers read it without locking.
	pipe *Receiver
}

// NewNode wraps one Transport endpoint in an object demux governed by man.
// When the endpoint is a Stream, its handshake manifest must be the same one
// — the demux's routing table and the wire contract are validated against
// each other, not assumed.
func NewNode(t Transport, man Manifest) (*Node, error) {
	man = man.Sorted()
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if st, ok := t.(*Stream); ok {
		if string(st.Manifest().Encode()) != string(man.Encode()) {
			return nil, fmt.Errorf("transport: node manifest (%s) differs from the stream's handshake manifest (%s)",
				man, st.Manifest())
		}
	}
	return &Node{t: t, man: man, peers: map[ObjID]*Peer{}}, nil
}

// Transport returns the shared endpoint (for stats and connection queries).
func (n *Node) Transport() Transport { return n.t }

// Register creates the Peer replicating object id over the shared endpoint.
// The id must be declared in the manifest (object 0 of an empty manifest is
// the single-object case) and not yet registered. The peer is built with
// opts, exactly as NewPeer would, and scoped to id.
func (n *Node) Register(id ObjID, obj crdt.Object, dec crdt.EffectorDecoder, causal bool, opts ...PeerOption) (*Peer, error) {
	if n.pipe != nil {
		return nil, fmt.Errorf("transport: cannot register object %d after the receiver started", id)
	}
	if len(n.man) > 0 {
		if _, ok := n.man.Lookup(id); !ok {
			return nil, fmt.Errorf("transport: object %d is not in the manifest (%s)", id, n.man)
		}
	} else if id != 0 {
		return nil, fmt.Errorf("transport: object %d needs a manifest declaring it", id)
	}
	if _, dup := n.peers[id]; dup {
		return nil, fmt.Errorf("transport: object %d registered twice", id)
	}
	p := NewPeer(obj, dec, n.t, causal, opts...)
	p.objID = id
	n.peers[id] = p
	n.order = append(n.order, id)
	return p, nil
}

// Peer returns the replica registered for id.
func (n *Node) Peer(id ObjID) (*Peer, bool) {
	p, ok := n.peers[id]
	return p, ok
}

// Objects returns the registered object IDs in registration order.
func (n *Node) Objects() []ObjID { return append([]ObjID(nil), n.order...) }

// route hands one inbound frame to its object's replica. A frame whose
// object no replica is registered for is rejected strictly — over a
// handshaked mesh both ends validated the same manifest, so an unknown ID is
// corruption or a routing bug, never negotiable traffic.
func (n *Node) route(f Frame) error {
	p, ok := n.peers[f.Obj]
	if !ok {
		return fmt.Errorf("%w: frame for unknown object %d (manifest: %s)", codec.ErrCorrupt, f.Obj, n.man)
	}
	return p.Handle(f)
}

// StartReceiver starts the parallel receive pipeline over the shared
// endpoint: inbound frames dispatch to per-object apply shards under the
// RecvPolicy the endpoint was built WithReceiver, one shard without it (and
// always one deterministic shard on Mem). Register every object first;
// afterwards the pipeline owns the receive side (Step refuses) and the
// Await/AwaitCatchUp/RunToQuiescence loops wait on applied frames instead of
// pumping. On a Mem endpoint start the receiver only once local invoking is
// done — Mem endpoints are not goroutine-safe, and the single shard then
// applies in the virtual clock's deterministic order.
func (n *Node) StartReceiver() (*Receiver, error) {
	if n.pipe != nil {
		return nil, fmt.Errorf("transport: receiver already started")
	}
	if len(n.peers) == 0 {
		return nil, fmt.Errorf("transport: register every object before starting the receiver")
	}
	var pol RecvPolicy
	if rp, ok := n.t.(recvPolicied); ok {
		pol = rp.recvPolicy()
	}
	n.pipe = NewReceiver(n.t, pol, n.route)
	return n.pipe, nil
}

// Receiver returns the running pipeline, nil before StartReceiver.
func (n *Node) Receiver() *Receiver { return n.pipe }

// Step receives one frame from the shared endpoint and routes it. It reports
// whether a frame was processed; with wait=true it blocks until one arrives
// or the endpoint's receive deadline passes. With the receive pipeline
// started, Step refuses — the dispatcher owns the receive side.
func (n *Node) Step(wait bool) (bool, error) {
	if n.pipe != nil {
		return false, fmt.Errorf("transport: Step on a node whose receive side is owned by the pipeline (StartReceiver)")
	}
	f, ok, err := n.t.Recv(wait)
	if err != nil || !ok {
		return false, err
	}
	return true, n.route(f)
}

// Flush forces any pending batch of the shared endpoint down to the wire.
func (n *Node) Flush() error { return n.t.Flush() }

// CatchUp broadcasts every registered late joiner's snapshot request (the
// peers built with WithCatchUp), in registration order — one batched flush
// carries all of them. AwaitCatchUp pumps until each resolves.
func (n *Node) CatchUp() error {
	for _, id := range n.order {
		if err := n.peers[id].CatchUp(); err != nil {
			return err
		}
	}
	return nil
}

// wait blocks until pred holds, whatever owns the receive side: with the
// pipeline started it waits on applied frames, otherwise it pumps Step. A
// step error returns as is, the deadline passing renders onTimeout, and a
// blocking step that reports no frame — a deterministic endpoint drained for
// good — renders onDrain.
func (n *Node) wait(deadline time.Duration, pred func() bool, onTimeout, onDrain func() error) error {
	if n.pipe != nil {
		return n.pipe.await(deadline, pred, onTimeout, onDrain)
	}
	limit := time.Now().Add(deadline)
	for !pred() {
		if time.Now().After(limit) {
			return onTimeout()
		}
		ok, err := n.Step(true)
		if err != nil {
			return err
		}
		if !ok {
			return onDrain()
		}
	}
	return nil
}

// AwaitCatchUp pumps the shared endpoint until every requested catch-up has
// resolved or the deadline passes. Responses for different objects arrive
// interleaved with live traffic; routing handles both.
func (n *Node) AwaitCatchUp(deadline time.Duration) error {
	// Collect the still-pending objects in registration order, so a
	// timeout names exactly which catch-ups stalled (not just how many).
	stuck := func() []ObjID {
		var out []ObjID
		for _, id := range n.order {
			if n.peers[id].awaitingSnapshot() {
				out = append(out, id)
			}
		}
		return out
	}
	return n.wait(deadline,
		func() bool { return len(stuck()) == 0 },
		func() error {
			return fmt.Errorf("transport: %w: object(s) %v still awaiting a snapshot response after %s%s", ErrTimeout, stuck(), deadline, n.openGaps())
		},
		func() error {
			return fmt.Errorf("transport: network drained while object(s) %v awaited snapshot responses%s", stuck(), n.openGaps())
		})
}

// openGaps names each object whose applied prefix has an open gap, in order.
func (n *Node) openGaps() string {
	var out string
	for _, id := range n.order {
		if g := n.peers[id].openGaps(); g != "" {
			out += fmt.Sprintf("; object %d%s", id, g)
		}
	}
	return out
}

// Quiesced reports whether every registered object is stable from this
// node's view.
func (n *Node) Quiesced() bool {
	for _, p := range n.peers {
		if !p.Quiesced() {
			return false
		}
	}
	return true
}

// RunToQuiescence pumps the shared endpoint until every registered object
// quiesces or the deadline passes. The pending batch is flushed first: the
// node is about to block on its peers, so holding its own broadcasts back
// could deadlock the mesh.
func (n *Node) RunToQuiescence(deadline time.Duration) error {
	if err := n.Flush(); err != nil {
		return err
	}
	return n.wait(deadline, n.Quiesced,
		func() error {
			return fmt.Errorf("transport: %w: %s after %s", ErrTimeout, n.unquiesced(), deadline)
		},
		func() error {
			return fmt.Errorf("transport: network drained but %s", n.unquiesced())
		})
}

// Await blocks until pred holds, whatever owns the receive side. Use it for
// mesh-level conditions the built-in loops do not cover (a hold-open barrier
// waiting for a late joiner's first frames, say).
func (n *Node) Await(deadline time.Duration, pred func() bool) error {
	return n.wait(deadline, pred,
		func() error {
			return fmt.Errorf("transport: %w: awaited condition not met after %s", ErrTimeout, deadline)
		},
		func() error {
			return fmt.Errorf("transport: network drained before the awaited condition was met")
		})
}

// unquiesced renders how many objects are not quiescent and names each, in
// registration order, with its peer's progress.
func (n *Node) unquiesced() string {
	var stuck []string
	for _, id := range n.order {
		if p := n.peers[id]; !p.Quiesced() {
			stuck = append(stuck, fmt.Sprintf("object %d %s", id, p.progress()))
		}
	}
	return fmt.Sprintf("%d of %d objects not quiescent: %s", len(stuck), len(n.peers), strings.Join(stuck, ", "))
}

// Close closes the shared endpoint (flushing any pending batch first, per
// the endpoint's own clean-hangup semantics).
func (n *Node) Close() error { return n.t.Close() }
