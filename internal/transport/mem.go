package transport

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Mem is the deterministic in-memory network: per-destination queues of
// frame copies measured against a virtual clock, with partition gating.
// It is the substrate sim.Cluster schedules deliveries on — every mutation
// is explicit and ordered, so chaos runs replay byte-for-byte — and it also
// serves Endpoint views implementing Transport, so the replica layer built
// for real sockets can be driven deterministically in tests.
//
// Mem itself is policy-free: it does not decide *when* a queued copy is
// consumed (the scheduler does), it only enforces *whether* one may move —
// the link must not be severed by a partition and the copy's arrival tick
// must have passed. Fault perturbation (loss, duplication, reorder,
// corruption) happens above, by mutating a Queued before Put.
type Mem struct {
	n   int
	now int
	// inbox holds each destination's undelivered copy sets, sorted by
	// (object, mid) — mid spaces are per object, so two multiplexed objects
	// may queue the same MsgID concurrently. Mids grow with every broadcast,
	// so a new copy set almost always appends. Queued values are shared
	// across Clones; a partially consumed duplicate is replaced
	// copy-on-write, so the sharing stays safe.
	inbox [][]*Queued
	// pending counts each destination's undelivered copies: the sum of
	// Copies over its inbox.
	pending []int
	// partition, when non-nil, assigns each node to a link group; frames
	// only flow within a group.
	partition []int
}

// Queued is one in-flight frame addressed to a single destination, together
// with its scheduling state: how many network copies remain (>1 after a
// duplication fault), the earliest virtual-clock tick a copy may move, and
// an opaque upper-layer value riding along (the simulator attaches the
// decoded effector and its dependency set so clean clusters can skip the
// wire codec).
type Queued struct {
	Frame   Frame
	Item    any
	Copies  int
	ReadyAt int
}

// NewMem creates the network for n nodes (IDs 0..n-1).
func NewMem(n int) *Mem {
	if n < 1 {
		panic("transport: network needs at least one node")
	}
	return &Mem{n: n, inbox: make([][]*Queued, n), pending: make([]int, n)}
}

// Now returns the virtual-clock tick arrival windows are measured against.
func (m *Mem) Now() int { return m.now }

// Tick advances the virtual clock by one step.
func (m *Mem) Tick() { m.now++ }

// AdvanceTo jumps the virtual clock forward to tick t (never backward).
func (m *Mem) AdvanceTo(t int) {
	if t > m.now {
		m.now = t
	}
}

// find binary-searches dst's inbox for the copy set of obj's mid, returning
// its position, or where it would be inserted, and whether it is queued.
func (m *Mem) find(dst model.NodeID, obj ObjID, mid model.MsgID) (int, bool) {
	return slices.BinarySearchFunc(m.inbox[dst], mid, func(q *Queued, mid model.MsgID) int {
		return cmp.Or(cmp.Compare(q.Frame.Obj, obj), cmp.Compare(q.Frame.MID, mid))
	})
}

// Put queues q for dst, replacing any copy set already queued under the same
// (object, MsgID) key (the corruption path uses this to swap a mangled copy
// set for one clean retransmission).
func (m *Mem) Put(dst model.NodeID, q *Queued) {
	i, ok := m.find(dst, q.Frame.Obj, q.Frame.MID)
	if ok {
		m.pending[dst] -= m.inbox[dst][i].Copies
		m.inbox[dst][i] = q
	} else {
		m.inbox[dst] = slices.Insert(m.inbox[dst], i, q)
	}
	m.pending[dst] += q.Copies
}

// Get returns object 0's queued copy set for mid at dst without consuming
// it. The mid-addressed accessors (Get, Take, Remove, Mids) serve the
// simulator's single-object schedules and address object 0; multiplexed
// traffic moves through Endpoint views, which handle every object.
func (m *Mem) Get(dst model.NodeID, mid model.MsgID) (*Queued, bool) {
	if i, ok := m.find(dst, 0, mid); ok {
		return m.inbox[dst][i], true
	}
	return nil, false
}

// Take consumes one network copy of object 0's mid at dst. Queued values are
// shared across Clones, so a partially consumed duplicate is replaced
// copy-on-write; the last copy removes the entry. It reports whether the mid
// was queued.
func (m *Mem) Take(dst model.NodeID, mid model.MsgID) (*Queued, bool) {
	i, ok := m.find(dst, 0, mid)
	if !ok {
		return nil, false
	}
	return m.take(dst, i), true
}

// take consumes one network copy of the copy set at position i of dst's
// inbox.
func (m *Mem) take(dst model.NodeID, i int) *Queued {
	q := m.inbox[dst][i]
	if q.Copies > 1 {
		cp := *q
		cp.Copies--
		m.inbox[dst][i] = &cp
	} else {
		m.inbox[dst] = slices.Delete(m.inbox[dst], i, i+1)
	}
	m.pending[dst]--
	return q
}

// Clear discards every queued copy addressed to dst (a replaced replica's
// inbox: the fresh node resyncs from the durable log instead).
func (m *Mem) Clear(dst model.NodeID) {
	m.inbox[dst], m.pending[dst] = nil, 0
}

// Remove discards every remaining queued copy of object 0's mid at dst.
func (m *Mem) Remove(dst model.NodeID, mid model.MsgID) bool {
	i, ok := m.find(dst, 0, mid)
	if !ok {
		return false
	}
	m.pending[dst] -= m.inbox[dst][i].Copies
	m.inbox[dst] = slices.Delete(m.inbox[dst], i, i+1)
	return true
}

// Queue returns dst's queued copy sets, sorted by (object, mid). The slice
// is the network's own: callers must not modify it, nor keep it across a
// mutation of the network.
func (m *Mem) Queue(dst model.NodeID) []*Queued { return m.inbox[dst] }

// Mids returns object 0's MsgIDs queued for dst, sorted.
func (m *Mem) Mids(dst model.NodeID) []model.MsgID {
	out := make([]model.MsgID, 0, len(m.inbox[dst]))
	for _, q := range m.inbox[dst] {
		if q.Frame.Obj != 0 {
			break
		}
		out = append(out, q.Frame.MID)
	}
	return out
}

// Ready reports whether a copy of mid may move to dst now: the link from its
// origin is not severed and its arrival tick has passed. Crash state and
// causal gating are delivery-layer policy and live above.
func (m *Mem) Ready(dst model.NodeID, q *Queued) bool {
	return m.Linked(q.Frame.From, dst) && q.ReadyAt <= m.now
}

// Pending returns the total number of undelivered frame copies.
func (m *Mem) Pending() int {
	n := 0
	for _, p := range m.pending {
		n += p
	}
	return n
}

// PendingTo returns the number of undelivered frame copies addressed to dst.
func (m *Mem) PendingTo(dst model.NodeID) int { return m.pending[dst] }

// NextArrival returns the earliest future arrival tick among queued copies
// on live links, skipping destinations for which skip reports true (the
// simulator skips crashed nodes).
func (m *Mem) NextArrival(skip func(dst model.NodeID) bool) (int, bool) {
	best, found := 0, false
	for dst, box := range m.inbox {
		if skip != nil && skip(model.NodeID(dst)) {
			continue
		}
		for _, q := range box {
			if !m.Linked(q.Frame.From, model.NodeID(dst)) {
				continue
			}
			if q.ReadyAt > m.now && (!found || q.ReadyAt < best) {
				best, found = q.ReadyAt, true
			}
		}
	}
	return best, found
}

// SetPartition installs a link partition: side[i] is node i's group, and
// frames only flow between nodes in the same group. The caller validates the
// grouping; Heal removes it.
func (m *Mem) SetPartition(side []int) {
	if len(side) != m.n {
		panic(fmt.Sprintf("transport: partition over %d nodes on a %d-node network", len(side), m.n))
	}
	m.partition = side
}

// Heal removes the partition.
func (m *Mem) Heal() { m.partition = nil }

// Partitioned reports whether a partition is in effect.
func (m *Mem) Partitioned() bool { return m.partition != nil }

// Linked reports whether frames may currently flow from a to b.
func (m *Mem) Linked(a, b model.NodeID) bool {
	if m.partition == nil {
		return true
	}
	return m.partition[a] == m.partition[b]
}

// InFlightBytesAcross sums the payload bytes of queued copies whose link is
// currently severed by the partition — the volume building up across the cut
// that byte-budgeted partition windows measure. Zero when no partition is in
// effect or the upper layer ships no bytes.
func (m *Mem) InFlightBytesAcross() int {
	if m.partition == nil {
		return 0
	}
	total := 0
	for dst, box := range m.inbox {
		for _, q := range box {
			if !m.Linked(q.Frame.From, model.NodeID(dst)) {
				total += len(q.Frame.Payload) * q.Copies
			}
		}
	}
	return total
}

// Clone copies the network so exhaustive explorers can branch: each inbox
// slice is copied and the Queued values in it are shared (nothing mutates a
// queued value in place: a partially consumed duplicate is replaced
// copy-on-write, so the sharing stays safe).
func (m *Mem) Clone() *Mem {
	cp := &Mem{n: m.n, now: m.now, pending: slices.Clone(m.pending), partition: slices.Clone(m.partition)}
	cp.inbox = make([][]*Queued, m.n)
	for dst, box := range m.inbox {
		cp.inbox[dst] = slices.Clone(box)
	}
	return cp
}

// Endpoint returns node id's Transport view of the network, configured by
// the options a socket Stream takes. Broadcast queues one clean copy per
// peer, and Recv consumes the ready frame with the smallest (arrival tick,
// object, mid) — a deterministic in-order schedule, so the replica layer
// built for sockets can be unit-tested reproducibly. The view shares the
// network's clock and queues; a waiting Recv advances the virtual clock to
// the next arrival instead of blocking. Each call creates a fresh view with
// its own pending batch and counters.
//
// Mem honours WithBatching, which shapes what a flush sends, but never when a
// timer sends it — the clock is virtual, so a pending batch waits for the
// frame cap, an explicit Flush, or Close, and BatchPolicy.MaxDelay does not
// apply. Flushed frames all arrive at the flush tick, so batched executions
// replay byte-for-byte.
//
// The other options do nothing on Mem. Node.StartReceiver's pipeline runs
// one deterministic shard here, whatever WithReceiver asks, and Mem
// endpoints are not goroutine-safe: drive the phases sequentially
// (broadcast, then let the pipeline drain).
func (m *Mem) Endpoint(id model.NodeID, opts ...StreamOption) Transport {
	if int(id) < 0 || int(id) >= m.n {
		panic(fmt.Sprintf("transport: no such node %s", id))
	}
	e := &memEndpoint{endpointConfig: newEndpointConfig(opts), m: m, self: id}
	e.stats.Sent = make([]PeerIO, m.n)
	e.stats.Recv = make([]PeerIO, m.n)
	return e
}

type memEndpoint struct {
	endpointConfig

	m      *Mem
	self   model.NodeID
	sq     sendQueue
	stats  Stats
	closed bool
}

func (e *memEndpoint) Self() model.NodeID { return e.self }
func (e *memEndpoint) N() int             { return e.m.n }

// ConnectedPeers lists every other node: a Mem link is never torn down
// (partitions gate delivery, not membership).
func (e *memEndpoint) ConnectedPeers() []model.NodeID {
	out := make([]model.NodeID, 0, e.m.n-1)
	for id := model.NodeID(0); int(id) < e.m.n; id++ {
		if id != e.self {
			out = append(out, id)
		}
	}
	return out
}

func (e *memEndpoint) Broadcast(f Frame) error {
	if e.closed {
		return ErrClosed
	}
	// Byte accounting mirrors the socket wire: the nested checksummed
	// envelope the frame would cost in a batch container.
	e.sq.push(f)
	e.stats.FramesQueued++
	if len(e.sq.items) >= e.policy.MaxFrames {
		return e.flush(trigFrames)
	}
	return nil
}

// flush writes the whole pending batch into the network at the current
// tick, one container per peer in arrival order. Every flushed frame arrives
// at the flush tick, so batched executions replay byte-for-byte.
func (e *memEndpoint) flush(trigger int) error {
	items := e.sq.items
	if len(items) == 0 {
		return nil
	}
	e.stats.noteFlush(trigger)
	objs := make([]ObjID, len(items))
	wire := 0
	for i, it := range items {
		objs[i] = it.frame.Obj
		wire += it.wire
	}
	for dst := model.NodeID(0); int(dst) < e.m.n; dst++ {
		if dst == e.self {
			continue
		}
		for _, it := range items {
			e.m.Put(dst, &Queued{Frame: it.frame, Copies: 1, ReadyAt: e.m.now})
		}
		e.stats.noteSent(dst, 1, wire, objs)
	}
	e.sq.reset()
	return nil
}

// Send queues one frame for exactly one peer: the snapshot protocol's
// response channel. The pending broadcast batch is flushed first so the
// unicast cannot overtake broadcasts queued before it.
func (e *memEndpoint) Send(to model.NodeID, f Frame) error {
	if e.closed {
		return ErrClosed
	}
	if int(to) < 0 || int(to) >= e.m.n || to == e.self {
		return fmt.Errorf("transport: cannot unicast to node %s", to)
	}
	if err := e.flush(trigExplicit); err != nil {
		return err
	}
	e.m.Put(to, &Queued{Frame: f, Copies: 1, ReadyAt: e.m.now})
	e.stats.noteSent(to, 1, f.wireLen(), []ObjID{f.Obj})
	return nil
}

// Flush forces the pending batch into the network queues.
func (e *memEndpoint) Flush() error {
	if e.closed {
		return ErrClosed
	}
	return e.flush(trigExplicit)
}

// Stats returns a snapshot of the endpoint's batching and IO counters.
func (e *memEndpoint) Stats() Stats { return e.stats.clone() }

func (e *memEndpoint) Recv(wait bool) (Frame, bool, error) {
	if e.closed {
		return Frame{}, false, ErrClosed
	}
	for {
		// Deterministic order: smallest (arrival tick, object, mid). The
		// inbox is sorted by (object, mid), so the first ready copy set of
		// the earliest tick wins.
		best := -1
		box := e.m.inbox[e.self]
		for i, q := range box {
			if e.m.Ready(e.self, q) && (best < 0 || q.ReadyAt < box[best].ReadyAt) {
				best = i
			}
		}
		if best >= 0 {
			q := e.m.take(e.self, best)
			from := q.Frame.From
			if int(from) >= 0 && int(from) < e.m.n {
				// Mem delivers frame-at-a-time: one batch per frame, charged
				// the nested envelope its send was, so the ledgers balance.
				e.stats.noteRecv(from, 1, q.Frame.wireLen(), []ObjID{q.Frame.Obj})
			}
			return q.Frame, true, nil
		}
		if !wait {
			return Frame{}, false, nil
		}
		// Nothing ready: advance the virtual clock to the next arrival, or
		// report quiescence when the queue is empty for good.
		next, ok := e.m.NextArrival(func(dst model.NodeID) bool { return dst != e.self })
		if !ok {
			return Frame{}, false, nil
		}
		e.m.AdvanceTo(next)
	}
}

// Close drains the pending batch into the network (the clean-hangup
// semantics the socket transport has: no queued frame is lost). Closing
// twice is a no-op.
func (e *memEndpoint) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.flush(trigClose)
}
