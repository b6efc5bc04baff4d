// Package sim simulates a replicated cluster executing an operation-based
// CRDT under the network assumptions of Sec 3: effectors are broadcast to
// every other node, delivered asynchronously, at most once per node, possibly
// never, and in arbitrary order (no FIFO). A cluster can optionally enforce
// causal delivery, the stronger assumption required by the X-wins sets
// (Sec 2.4, Sec 9).
//
// The cluster records the execution as a trace.Trace — the event traces over
// which ACC, XACC and convergence are decided — and supports scripted
// deliveries (to replay the paper's figures), random schedules (for
// property-based soundness harnesses), and full drains (to reach quiescence).
//
// Since the transport split, Cluster is a thin composition of layers:
//
//	replica layer      states (applied in place while owned), Prepare, the
//	                   trace, the broadcast log and its snapshot checkpoints
//	                   (snapshot.go)
//	delivery layer     at-most-once dedup and causal gating on Peer's rule
//	                   (transport.CausalContext), drops, crash state
//	fault layer        seeded link perturbation and fault plans (faults.go,
//	                   partition.go)
//	transport layer    transport.Mem — per-destination frame queues over a
//	                   virtual clock with partition gating
//
// Everything below the delivery layer moves checksummed codec frames; the
// same frames travel over unix/TCP sockets between OS processes via
// transport.Stream and transport.Peer. Every faulty execution remains
// replayable from (script, seed, fault plan).
package sim

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Sentinel errors classifying why a delivery-queue operation was refused.
// Harnesses match these with errors.Is; the wrapped messages add the node and
// message identifiers.
var (
	// ErrUnknownMessage: the message was never addressed to the node (wrong
	// MsgID, identity effector, or a node outside the broadcast).
	ErrUnknownMessage = errors.New("sim: no such pending message")
	// ErrAlreadyDelivered: the message was already applied at the node.
	ErrAlreadyDelivered = errors.New("sim: message already delivered")
	// ErrAlreadyDropped: the message was already discarded by Drop.
	ErrAlreadyDropped = errors.New("sim: message already dropped")
	// ErrCausalOrder: delivering now would violate causal delivery.
	ErrCausalOrder = errors.New("sim: delivery would violate causal delivery")
	// ErrInTransit: the message's latency window has not elapsed yet.
	ErrInTransit = errors.New("sim: message still in transit")
	// ErrPartitioned: the link between origin and destination is cut.
	ErrPartitioned = errors.New("sim: link severed by partition")
	// ErrNodeDown: the node is crashed (see Crash/Recover).
	ErrNodeDown = errors.New("sim: node is down")
	// ErrCorruptPayload: the copy's wire payload failed to decode (a
	// corruption fault flipped a bit in transit). The copy is discarded and
	// a clean retransmission is queued; the error wraps codec.ErrCorrupt.
	ErrCorruptPayload = errors.New("sim: corrupt payload rejected")
)

// message is the delivery-layer view of one broadcast effector: rec, the
// record its deliveries share (the operation and the effector, with a Nil
// return value), and deps, its origin's causal context when it was issued,
// whose frontier the deps test reads (Covers). It rides along each queued
// transport copy as the opaque Item, and is what the broadcast log stores.
type message struct {
	mid  model.MsgID
	from model.NodeID
	rec  *trace.Record
	deps transport.CausalContext
}

// pred returns m's origin's previous broadcast (0 for none).
func (m *message) pred() model.MsgID { return m.deps.Front(int(m.from)) }

// delivery names one queued message at one destination.
type delivery struct {
	dst model.NodeID
	mid model.MsgID
}

// Cluster is a simulated replicated system running one CRDT object.
type Cluster struct {
	// --- replica layer ---
	obj    crdt.Object
	states []crdt.State
	// owned[t] reports that only the cluster reaches states[t], so apply
	// may mutate it (crdt.ApplyOwned); Clone and StateOf clear it.
	owned   []bool
	tr      trace.Trace
	nextMID model.MsgID
	// msglog is the durable broadcast log, in MsgID (hence happens-before
	// consistent) order; fresh-replica resync replays it from the latest
	// snapshot checkpoint (see Recover and snapshot.go), and checkpoints
	// truncate it up to the stable frontier.
	msglog []*message

	// --- delivery layer ---
	causal  bool
	applied []transport.CausalContext // effectors applied per node
	dropped []map[model.MsgID]bool    // messages discarded per node (Drop); nil until the first
	// down marks crashed nodes: they accept no invocations and no
	// deliveries until Recover (messages stay queued in the network).
	down []bool

	// --- transport layer ---
	// net queues frame copies per destination over the virtual clock and
	// gates them on partitions; the delivery layer schedules consumption.
	net *transport.Mem
	// dec, when non-nil, makes the cluster ship bytes: Invoke encodes each
	// broadcast effector into a framed payload, and delivery decodes it
	// with dec.
	dec crdt.EffectorDecoder
	// cand is DeliverRandom's candidate buffer, reused across calls; a
	// Clone starts without one, so clones never share it.
	cand []delivery

	// --- fault layer ---
	// faults, when non-nil, perturbs every queued copy with seeded link
	// faults (loss → retransmission delay, duplication, reorder delay,
	// payload corruption).
	faults *linkFaults
	stats  FaultStats

	// --- snapshot checkpoints (snapshot.go) ---
	snapEvery int
	decState  crdt.StateDecoder
	sinceCkpt int
	snap      *snapshot
	recov     []RecoveryNote
}

// Option configures a cluster.
type Option func(*Cluster)

// WithCausalDelivery makes the cluster refuse to deliver an effector to a
// node before every effector that happened before it (Sec 9).
func WithCausalDelivery() Option { return func(c *Cluster) { c.causal = true } }

// WithWireCodec makes the cluster actually ship bytes: every broadcast
// encodes the effector into a checksummed wire frame (codec.AppendFrame),
// every delivery decodes the payload with dec before applying it, and
// FaultStats totals the payload bytes queued. Without it the cluster
// passes effector values in memory, as the schedule explorers do.
func WithWireCodec(dec crdt.EffectorDecoder) Option {
	return func(c *Cluster) { c.dec = dec }
}

// send queues a copy of m carrying payload for dst, arriving at tick readyAt
// (then perturbed by the link faults, if perturb), and charges its payload
// bytes to the totals.
func (c *Cluster) send(dst model.NodeID, m *message, payload []byte, readyAt int, perturb bool) {
	q := &transport.Queued{
		Frame:   transport.Frame{Kind: transport.KindEffector, MID: m.mid, From: m.from, Payload: payload},
		Item:    m,
		Copies:  1,
		ReadyAt: readyAt,
	}
	if perturb && c.faults != nil {
		c.faults.perturb(c, q)
	}
	if payload != nil {
		n := len(q.Frame.Payload) * q.Copies
		c.stats.PayloadBytes += n
		c.stats.PayloadFrames += q.Copies
	}
	c.net.Put(dst, q)
}

// NewCluster creates a cluster of n nodes (IDs 0..n-1), each starting from
// the object's initial state.
func NewCluster(obj crdt.Object, n int, opts ...Option) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one node")
	}
	c := &Cluster{obj: obj, nextMID: 1, net: transport.NewMem(n)}
	for i := 0; i < n; i++ {
		c.states = append(c.states, obj.Init())
		c.applied = append(c.applied, transport.NewCausalContext(n))
		c.owned = append(c.owned, true)
	}
	c.dropped = make([]map[model.MsgID]bool, n)
	c.down = make([]bool, n)
	for _, o := range opts {
		o(c)
	}
	return c
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.states) }

// Object returns the CRDT implementation the cluster runs.
func (c *Cluster) Object() crdt.Object { return c.obj }

// StateOf returns the current replica state of a node. The caller may keep
// it: the cluster gives up ownership, so its next apply at t copies.
func (c *Cluster) StateOf(t model.NodeID) crdt.State {
	c.owned[t] = false
	return c.states[t]
}

// apply applies eff to node t's replica: in place while the cluster owns the
// state, otherwise through the pure Apply, whose fresh result it then owns.
func (c *Cluster) apply(t model.NodeID, eff crdt.Effector) {
	if c.owned[t] {
		c.states[t] = crdt.ApplyOwned(eff, c.states[t])
		return
	}
	c.states[t], c.owned[t] = eff.Apply(c.states[t]), true
}

// Now returns the virtual-clock tick latency windows are measured against.
func (c *Cluster) Now() int { return c.net.Now() }

// Tick advances the virtual clock by one step, making messages whose latency
// window has elapsed deliverable.
func (c *Cluster) Tick() { c.net.Tick() }

// FaultStats returns what the fault layer has done so far.
func (c *Cluster) FaultStats() FaultStats { return c.stats }

// Trace returns a copy of the execution trace so far.
func (c *Cluster) Trace() trace.Trace { return slices.Clone(c.tr) }

// Invoke issues op at node t: the first phase (Prepare) runs over the local
// replica, the effector is applied at t immediately and atomically, the
// origin event is recorded, and the effector is broadcast to the other nodes
// (identity effectors are not broadcast, Sec 2.1). Invoke returns the
// operation's return value and its unique request ID. It returns
// crdt.ErrAssume unchanged when the operation's precondition fails, leaving
// the cluster untouched, and ErrNodeDown when t is crashed.
func (c *Cluster) Invoke(t model.NodeID, op model.Op) (model.Value, model.MsgID, error) {
	if int(t) < 0 || int(t) >= len(c.states) {
		return model.Nil(), 0, fmt.Errorf("sim: no such node %s", t)
	}
	if c.down[t] {
		return model.Nil(), 0, fmt.Errorf("sim: invoke at %s: %w", t, ErrNodeDown)
	}
	mid := c.nextMID
	ret, eff, err := c.obj.Prepare(op, c.states[t], t, mid)
	if err != nil {
		return model.Nil(), 0, err
	}
	var wire []byte
	if c.dec != nil && !crdt.IsIdentity(eff) {
		// Sender-side validation: a clean encoding the registered decoder
		// cannot parse is a codec-registration bug, not transit corruption —
		// surface it here deterministically rather than retransmitting the
		// undecodable broadcast forever.
		wire = codec.AppendFrame(nil, eff.AppendBinary(nil))
		if _, derr := c.decodeWire(wire); derr != nil {
			return model.Nil(), 0, fmt.Errorf("sim: invoke at %s: broadcast %s does not decode with the registered wire codec: %v", t, eff, derr)
		}
	}
	c.nextMID++
	rec := &trace.Record{Op: op, Ret: ret, Eff: eff}
	c.tr = append(c.tr, trace.Event{Record: rec, MID: mid, Node: t, Origin: t, IsOrigin: true})
	if !crdt.IsIdentity(eff) {
		// Identity effectors change no state and are never broadcast, so
		// they must not enter anyone's causal context either — they could
		// never be applied at a remote node.
		c.apply(t, eff)
		if !ret.IsNil() {
			rec = &trace.Record{Op: op, Eff: eff} // a delivery returns nothing
		}
		m := &message{mid: mid, from: t, rec: rec, deps: c.applied[t].Clone()}
		c.applied[t].MarkApplied(int(t), mid, m.pred())
		c.appendLog(m)
		for dst := range c.states {
			if model.NodeID(dst) != t {
				c.send(model.NodeID(dst), m, wire, c.net.Now(), true)
			}
		}
	}
	return ret, mid, nil
}

// deliverable reports whether q may be delivered to dst now, honouring the
// crash state, the transport gating (partition and latency window), and
// causal delivery when enabled.
func (c *Cluster) deliverable(dst model.NodeID, q *transport.Queued) bool {
	if c.down[dst] || !c.net.Ready(dst, q) {
		return false
	}
	return !c.causal || c.applied[dst].Covers(&q.Item.(*message).deps)
}

// Deliverable returns the request IDs currently deliverable to dst, sorted.
func (c *Cluster) Deliverable(dst model.NodeID) []model.MsgID {
	var out []model.MsgID
	for _, q := range c.net.Queue(dst) {
		if c.deliverable(dst, q) {
			out = append(out, q.Frame.MID)
		}
	}
	return out
}

// missing classifies why mid is not in dst's queue. An error path, so it
// scans the trace for mid's apply at dst rather than look up mid's origin.
func (c *Cluster) missing(verb string, dst model.NodeID, mid model.MsgID) error {
	err := ErrUnknownMessage
	if c.dropped[dst][mid] {
		err = ErrAlreadyDropped
	}
	for _, e := range c.tr {
		if e.MID == mid && e.Node == dst && !e.IsQuery() {
			err = ErrAlreadyDelivered
		}
	}
	return fmt.Errorf("sim: %s %s at %s: %w", verb, mid, dst, err)
}

// Deliver consumes one queued copy of message mid at node dst. The first
// copy applies the effector and records the delivery event; further copies
// (queued by duplication faults) are suppressed by the at-most-once delivery
// layer without reapplying. Deliver refuses crashed destinations, severed
// links, unelapsed latency windows, and causal-order violations with the
// matching sentinel errors.
func (c *Cluster) Deliver(dst model.NodeID, mid model.MsgID) error {
	if int(dst) < 0 || int(dst) >= len(c.states) {
		return fmt.Errorf("sim: no such node %s", dst)
	}
	if c.down[dst] {
		return fmt.Errorf("sim: deliver %s to %s: %w", mid, dst, ErrNodeDown)
	}
	q, ok := c.net.Get(dst, mid)
	if !ok {
		return c.missing("deliver", dst, mid)
	}
	msg := q.Item.(*message)
	if !c.net.Linked(msg.from, dst) {
		return fmt.Errorf("sim: deliver %s to %s: %w", mid, dst, ErrPartitioned)
	}
	if q.ReadyAt > c.net.Now() {
		return fmt.Errorf("sim: deliver %s to %s: %w (arrives at tick %d, now %d)",
			mid, dst, ErrInTransit, q.ReadyAt, c.net.Now())
	}
	if c.causal && !c.applied[dst].Covers(&msg.deps) {
		return fmt.Errorf("sim: deliver %s to %s: %w", mid, dst, ErrCausalOrder)
	}
	// Consume one network copy (the transport replaces partially consumed
	// duplicates copy-on-write, so Clones stay unaffected).
	c.net.Take(dst, mid)
	if c.applied[dst].Applied(int(msg.from), mid) {
		// At-most-once: a duplicated copy arrives after the effector was
		// applied; suppress it without reapplying or recording an event.
		// Duplicates are deduplicated by request ID at the delivery layer,
		// before the payload is even parsed.
		c.stats.DupSuppressed++
		return nil
	}
	rec := msg.rec
	if c.dec != nil && q.Frame.Payload != nil {
		eff, derr := c.decodeWire(q.Frame.Payload)
		if derr != nil {
			// The payload was corrupted in transit and the decoder rejected
			// it. Discard every remaining queued copy (they carry the same
			// corrupt bytes) and queue one clean retransmission, delayed
			// like a loss so it outlasts any reorder window.
			delay := 1
			if c.faults != nil {
				delay = c.faults.cfg.DelayMax + 1
			}
			c.send(dst, msg, codec.AppendFrame(nil, rec.Eff.AppendBinary(nil)), c.net.Now()+delay, false)
			c.stats.CorruptRejected++
			return fmt.Errorf("sim: deliver %s to %s: %w: %v", mid, dst, ErrCorruptPayload, derr)
		}
		// The trace names the effector this node decoded and applied.
		rec = &trace.Record{Op: rec.Op, Eff: eff}
	}
	c.apply(dst, rec.Eff)
	c.applied[dst].MarkApplied(int(msg.from), mid, msg.pred())
	c.tr = append(c.tr, trace.Event{Record: rec, MID: mid, Node: dst, Origin: msg.from})
	c.tickCheckpoint()
	return nil
}

// decodeWire unwraps one framed payload and decodes the effector inside.
func (c *Cluster) decodeWire(payload []byte) (crdt.Effector, error) {
	inner, err := codec.Unframe(payload)
	if err != nil {
		return nil, err
	}
	return c.dec(inner)
}

// Drop discards every remaining queued copy of the in-flight effector mid
// addressed to dst; it will never be delivered (the paper allows messages to
// be lost). Dropping a message that was never queued, was already delivered,
// or was already dropped fails with ErrUnknownMessage, ErrAlreadyDelivered,
// or ErrAlreadyDropped respectively.
func (c *Cluster) Drop(dst model.NodeID, mid model.MsgID) error {
	if int(dst) < 0 || int(dst) >= len(c.states) {
		return fmt.Errorf("sim: no such node %s", dst)
	}
	if !c.net.Remove(dst, mid) {
		return c.missing("drop", dst, mid)
	}
	if c.dropped[dst] == nil {
		c.dropped[dst] = map[model.MsgID]bool{}
	}
	c.dropped[dst][mid] = true
	return nil
}

// Pending returns the total number of undelivered message copies.
func (c *Cluster) Pending() int { return c.net.Pending() }

// PendingTo returns the number of undelivered message copies addressed to dst.
func (c *Cluster) PendingTo(dst model.NodeID) int { return c.net.PendingTo(dst) }

// DeliverRandom delivers one random deliverable message using rng. It
// reports whether a delivery happened.
func (c *Cluster) DeliverRandom(rng *rand.Rand) bool {
	c.cand = c.cand[:0]
	for dst := model.NodeID(0); int(dst) < c.N(); dst++ {
		for _, q := range c.net.Queue(dst) {
			if c.deliverable(dst, q) {
				c.cand = append(c.cand, delivery{dst, q.Frame.MID})
			}
		}
	}
	if len(c.cand) == 0 {
		return false
	}
	d := c.cand[rng.Intn(len(c.cand))]
	if err := c.Deliver(d.dst, d.mid); err != nil {
		if errors.Is(err, ErrCorruptPayload) {
			// The attempt consumed the corrupt copy and a clean
			// retransmission is queued; the scheduling slot is spent.
			return true
		}
		panic(err) // unreachable: slot was deliverable
	}
	return true
}

// DeliverAll drains every in-flight message copy (in causal mode, repeatedly
// delivering whatever is deliverable until quiescent), advancing the virtual
// clock past latency windows as needed. Messages blocked by a partition or a
// crashed node legitimately wait for Heal/Recover, and so, under causal
// delivery, do messages that depend on one dropped at their destination
// (see lost): they wait forever. Anything else left undeliverable indicates
// a dependency-tracking bug and panics.
func (c *Cluster) DeliverAll() {
	if !c.drain(c.Pending, 0, c.N()) && !c.Partitioned() && !slices.Contains(c.down, true) && !c.lost() {
		panic("sim: undeliverable messages remain (broken causal dependencies)")
	}
}

// drain delivers whatever is deliverable to nodes lo..hi-1 until pending
// reports nothing left, jumping the clock to the next arrival whenever
// nothing can move. It reports false when the copies left are blocked.
func (c *Cluster) drain(pending func() int, lo, hi int) bool {
	for pending() > 0 {
		progress := false
		for dst := model.NodeID(lo); int(dst) < hi; dst++ {
			for _, mid := range c.Deliverable(dst) {
				progress = c.Deliver(dst, mid) == nil || progress
			}
		}
		if !progress {
			// The earliest arrival on a live link to a live node.
			next, ok := c.net.NextArrival(func(dst model.NodeID) bool { return c.down[dst] })
			if !ok || next <= c.Now() {
				return false
			}
			c.net.AdvanceTo(next)
		}
	}
	return true
}

// lost reports whether every queued message waits, directly or through other
// waiting messages, on a dependency dropped at its destination: a quiescent
// state of the paper's lossy network, not a tracking bug. Deps are older
// than their message, so one pass in mid order decides each after its deps.
func (c *Cluster) lost() bool {
	for dst := range c.states {
		stuck := maps.Clone(c.dropped[dst])
		for _, q := range c.net.Queue(model.NodeID(dst)) {
			blocked := false
			for o := range c.states {
				d := q.Item.(*message).deps.Front(o)
				blocked = blocked || stuck[d] && !c.applied[dst].Applied(o, d)
			}
			if !blocked {
				return false
			}
			stuck[q.Frame.MID] = true
		}
	}
	return true
}

// Converged reports whether all replicas map to the same abstract state
// under φ, and returns that abstract state when they do.
func (c *Cluster) Converged(abs crdt.Abstraction) (model.Value, bool) {
	ref := abs(c.states[0])
	for _, s := range c.states[1:] {
		if !abs(s).Equal(ref) {
			return model.Nil(), false
		}
	}
	return ref, true
}
