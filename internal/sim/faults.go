package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file is the fault-injection layer: seeded link faults applied to
// every queued message copy (loss-with-retransmission, bounded duplication,
// reorder/latency windows), a FaultPlan scheduling transient partitions and
// node crash/recovery windows over the virtual clock, and the Chaos engine
// that runs a script under a plan deterministically — two runs with the same
// (script, seed, plan) produce byte-for-byte identical traces and stats.
//
// The layer perturbs the network *below* the reliable-broadcast abstraction
// the op-based model assumes (Sec 3): a lost packet is retransmitted (loss
// becomes latency), a duplicated packet is suppressed by the at-most-once
// delivery layer, and delayed packets arrive out of order. What must survive
// all of that — and what the chaos conformance item checks — is that every
// replica converges to the same abstract value once faults heal and delivery
// quiesces, under the causal/non-causal setting the paper assigns the
// algorithm.

// LinkFaults are the seeded per-link message faults applied when an effector
// copy is queued.
type LinkFaults struct {
	// Loss is the probability that a queued copy is lost in transit. The
	// reliable-broadcast layer retransmits it, so a loss manifests as an
	// extra delay of DelayMax+1 ticks rather than a silent drop (permanent
	// loss remains available via Cluster.Drop).
	Loss float64
	// Dup is the probability that a queued copy is duplicated in the
	// network; the delivery layer must suppress the extras.
	Dup float64
	// MaxDup bounds the extra copies per duplication event (default 1).
	MaxDup int
	// DelayMax is the reorder window: every copy is delayed by a uniform
	// 0..DelayMax ticks, so later messages can overtake earlier ones.
	DelayMax int
	// Corrupt is the probability that a queued copy's wire payload has one
	// bit flipped in transit. It only bites on clusters that ship bytes
	// (WithWireCodec): the decoder rejects the mangled frame with
	// ErrCorruptPayload and a clean retransmission is queued — corruption
	// must never reach Effector.Apply.
	Corrupt float64
	// CorruptPerKB adds payload-size-aware corruption on top of Corrupt:
	// each queued copy's corruption probability grows by CorruptPerKB for
	// every KiB of wire payload, modelling that bigger frames expose more
	// bits to the link. The combined probability is capped at 1.
	CorruptPerKB float64
}

// Active reports whether any link fault is configured.
func (f LinkFaults) Active() bool {
	return f.Loss > 0 || f.Dup > 0 || f.DelayMax > 0 || f.Corrupt > 0 || f.CorruptPerKB > 0
}

// corruptProb returns the corruption probability for a payload of n bytes.
func (f LinkFaults) corruptProb(n int) float64 {
	p := f.Corrupt + f.CorruptPerKB*float64(n)/1024
	if p > 1 {
		p = 1
	}
	return p
}

// linkFaults pairs the configuration with its seeded RNG on the cluster.
type linkFaults struct {
	cfg LinkFaults
	rng *rand.Rand
}

// WithLinkFaults installs seeded link faults: every copy queued by Invoke is
// perturbed deterministically from the seed.
func WithLinkFaults(f LinkFaults, seed int64) Option {
	return func(c *Cluster) {
		if f.Active() {
			c.faults = &linkFaults{cfg: f, rng: rand.New(rand.NewSource(seed))}
		}
	}
}

// perturb applies the link faults to one freshly queued copy. The RNG is
// consulted in a fixed order per copy, and Invoke queues copies in
// destination order, so runs are reproducible from the seed.
func (n *linkFaults) perturb(c *Cluster, q *transport.Queued) {
	f := n.cfg
	if f.Loss > 0 && n.rng.Float64() < f.Loss {
		c.stats.Lost++
		q.ReadyAt += f.DelayMax + 1 // retransmission outlasts any reorder delay
	}
	if f.DelayMax > 0 {
		if d := n.rng.Intn(f.DelayMax + 1); d > 0 {
			c.stats.Delayed++
			q.ReadyAt += d
		}
	}
	if f.Dup > 0 && n.rng.Float64() < f.Dup {
		extra := 1
		if f.MaxDup > 1 {
			extra = 1 + n.rng.Intn(f.MaxDup)
		}
		q.Copies += extra
		c.stats.Duplicated += extra
	}
	// Corruption is drawn last, and only when configured, so plans without
	// it consume exactly the RNG stream older seeds were recorded against
	// (CorruptPerKB=0 leaves both the draw condition and the probability of
	// plans recorded before it existed unchanged).
	if (f.Corrupt > 0 || f.CorruptPerKB > 0) && q.Frame.Payload != nil &&
		n.rng.Float64() < f.corruptProb(len(q.Frame.Payload)) {
		payload := q.Frame.Payload
		bit := n.rng.Intn(len(payload) * 8)
		cp := append([]byte(nil), payload...) // payloads are shared across copies
		cp[bit/8] ^= 1 << (bit % 8)
		q.Frame.Payload = cp
		c.stats.Corrupted++
	}
}

// FaultStats counts what the fault layer did during a run. All counters are
// deterministic for a fixed (script, seed, plan).
type FaultStats struct {
	// Lost counts copies lost in transit (and retransmitted).
	Lost int
	// Delayed counts copies given a nonzero reorder delay.
	Delayed int
	// Duplicated counts extra network copies created by duplication.
	Duplicated int
	// DupSuppressed counts duplicate copies the at-most-once delivery
	// layer suppressed instead of reapplying.
	DupSuppressed int
	// Crashes, Recoveries and Resyncs count node failures; Resyncs are the
	// fresh-replica recoveries that resynced from the durable broadcast log.
	Crashes, Recoveries, Resyncs int
	// Partitions and Heals count partition transitions.
	Partitions, Heals int
	// Corrupted counts copies whose payload was bit-flipped in transit;
	// CorruptRejected counts delivery attempts the wire decoder refused
	// (each triggers a clean retransmission). Both stay zero unless the
	// cluster ships bytes.
	Corrupted, CorruptRejected int
	// PayloadBytes totals the wire payload bytes queued across all links,
	// including duplicated copies and corruption retransmissions;
	// PayloadFrames counts the frame copies those bytes travelled in, so
	// bytes/frames gives the mean wire payload size — the figure batching
	// policies on the socket transport amortise per-write costs over.
	PayloadBytes  int
	PayloadFrames int
	// Checkpoints counts snapshot checkpoints that advanced the stable
	// frontier; LogTruncated counts broadcast-log entries truncated by them;
	// SnapshotBytes totals the encoded snapshot frames written.
	Checkpoints, LogTruncated, SnapshotBytes int
	// SnapshotResyncs counts the fresh recoveries that restored a replica
	// from a decoded snapshot (the rest of Resyncs replayed the full log).
	SnapshotResyncs int
	// PartsClosedEarly counts partition windows a byte budget closed before
	// their scheduled end (PartitionWindow.MaxInFlightBytes).
	PartsClosedEarly int
}

// String renders the stats compactly.
func (s FaultStats) String() string {
	out := fmt.Sprintf("lost=%d delayed=%d dup=%d dup-suppressed=%d corrupted=%d corrupt-rejected=%d crashes=%d recoveries=%d resyncs=%d partitions=%d heals=%d payload=%dB/%df",
		s.Lost, s.Delayed, s.Duplicated, s.DupSuppressed, s.Corrupted, s.CorruptRejected, s.Crashes, s.Recoveries, s.Resyncs, s.Partitions, s.Heals, s.PayloadBytes, s.PayloadFrames)
	if s.Checkpoints > 0 || s.SnapshotResyncs > 0 {
		out += fmt.Sprintf(" checkpoints=%d truncated=%d snap-resyncs=%d snap=%dB",
			s.Checkpoints, s.LogTruncated, s.SnapshotResyncs, s.SnapshotBytes)
	}
	if s.PartsClosedEarly > 0 {
		out += fmt.Sprintf(" parts-closed-early=%d", s.PartsClosedEarly)
	}
	return out
}

// PartitionWindow cuts the cluster into Groups during ticks [From, To).
type PartitionWindow struct {
	From, To int
	Groups   [][]model.NodeID
	// MaxInFlightBytes, when positive, sizes the window to the traffic it
	// dams up instead of only to the clock: once the wire payload bytes
	// queued across the cut exceed the budget, the partition heals early.
	// It only bites on clusters that ship bytes (WithWireCodec).
	MaxInFlightBytes int
}

// CrashWindow takes Node down during ticks [From, To). With Fresh the node
// recovers as a replacement replica that resyncs from the latest snapshot
// checkpoint and the retained broadcast log; otherwise it restarts from its
// durable state.
type CrashWindow struct {
	Node     model.NodeID
	From, To int
	Fresh    bool
}

// FaultPlan is a complete, deterministic description of the network
// pathology a chaos run injects: link faults for the whole run plus
// partition and crash windows over the virtual clock. Windows for the same
// resource must not overlap (GenFaultPlan never produces overlaps).
type FaultPlan struct {
	Link       LinkFaults
	Partitions []PartitionWindow
	Crashes    []CrashWindow
}

// horizon returns the tick by which every window has closed, leaving out
// the partition windows closed marks.
func (p FaultPlan) horizon(closed []bool) int {
	h := 0
	for i, w := range p.Partitions {
		if !closed[i] {
			h = max(h, w.To)
		}
	}
	for _, w := range p.Crashes {
		h = max(h, w.To)
	}
	return h
}

// openWindow names the window that holds the plan's horizon, leaving out the
// partition windows closed marks.
func (p FaultPlan) openWindow(closed []bool) string {
	h := p.horizon(closed)
	for i, w := range p.Partitions {
		if !closed[i] && w.To == h {
			return fmt.Sprintf("partition window [%d,%d)", w.From, w.To)
		}
	}
	for _, w := range p.Crashes {
		if w.To == h {
			return fmt.Sprintf("crash window [%d,%d) of node %s", w.From, w.To, w.Node)
		}
	}
	return "no window"
}

// String renders the plan deterministically (part of the reproduction
// recipe printed by crdt-sim -chaos). Fields added after a recipe format was
// published render only when set, so older recipes print unchanged.
func (p FaultPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link{loss=%.2f dup=%.2f maxdup=%d delay=%d corrupt=%.2f",
		p.Link.Loss, p.Link.Dup, p.Link.MaxDup, p.Link.DelayMax, p.Link.Corrupt)
	if p.Link.CorruptPerKB > 0 {
		fmt.Fprintf(&b, " corrupt/KB=%.2f", p.Link.CorruptPerKB)
	}
	b.WriteByte('}')
	for _, w := range p.Partitions {
		fmt.Fprintf(&b, " part[%d,%d)%v", w.From, w.To, w.Groups)
		if w.MaxInFlightBytes > 0 {
			fmt.Fprintf(&b, "<=%dB", w.MaxInFlightBytes)
		}
	}
	for _, w := range p.Crashes {
		mode := "durable"
		if w.Fresh {
			mode = "fresh"
		}
		fmt.Fprintf(&b, " crash[%d,%d)node=%s,%s", w.From, w.To, w.Node, mode)
	}
	return b.String()
}

// Chaos runs a fixed script on a faulted cluster: operations are issued in
// script order (waiting while their node is crashed or their precondition
// needs missing deliveries), deliveries are scheduled randomly from the
// seed, and the plan's windows open and close on the virtual clock. After
// the script completes and every window has closed, the run heals, recovers
// and drains to quiescence.
type Chaos struct {
	Object crdt.Object
	Abs    crdt.Abstraction
	Script Script
	Plan   FaultPlan
	// Nodes is the cluster size (default 3).
	Nodes int
	// Seed drives both the link-fault RNG and the delivery scheduler.
	Seed int64
	// Causal enables causal delivery.
	Causal bool
	// Decode, when non-nil, makes the run ship bytes (WithWireCodec): every
	// broadcast is encoded into a checksummed frame and every delivery
	// decodes it — the setting under which the plan's corruption faults
	// actually bite.
	Decode crdt.EffectorDecoder
	// SnapshotEvery, when positive, enables snapshot checkpoints every that
	// many broadcast-log appends (WithSnapshots): the log is truncated up to
	// the stable frontier and fresh recoveries resync from the decoded
	// snapshot instead of a full log replay. Requires DecodeState.
	SnapshotEvery int
	// DecodeState is the algorithm's registered state decoder, used to
	// restore snapshots (required when SnapshotEvery is set).
	DecodeState crdt.StateDecoder
	// SyncInvokes drains every message addressed to the invoking node
	// before each scripted invoke, so prepare-time visibility matches the
	// clean invoke-then-drain oracle (used by the differential tests).
	SyncInvokes bool
}

// maxTicks bounds a chaos run's virtual clock against scheduling
// pathologies.
const maxTicks = 10000

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Cluster *Cluster
	Trace   trace.Trace
	Stats   FaultStats
	// Ticks is the virtual-clock value at quiescence.
	Ticks int
}

// schedMix decorrelates the delivery scheduler from the link-fault RNG.
const schedMix int64 = 0x5DEECE66DAA2F695

// Run executes the chaos workload. The result is fully determined by
// (Script, Seed, Plan, Nodes, Causal): traces, stats and the final states
// are byte-for-byte reproducible.
func (w Chaos) Run() (*ChaosReport, error) {
	nodes := w.Nodes
	if nodes == 0 {
		nodes = 3
	}
	opts := []Option{WithLinkFaults(w.Plan.Link, w.Seed)}
	if w.Causal {
		opts = append(opts, WithCausalDelivery())
	}
	if w.Decode != nil {
		opts = append(opts, WithWireCodec(w.Decode))
	}
	if w.SnapshotEvery > 0 {
		if w.DecodeState == nil {
			return nil, errors.New("sim: chaos with SnapshotEvery needs DecodeState (the registered state decoder)")
		}
		opts = append(opts, WithSnapshots(w.SnapshotEvery, w.DecodeState))
	}
	c := NewCluster(w.Object, nodes, opts...)
	sched := rand.New(rand.NewSource(w.Seed ^ schedMix))
	next := 0
	activePart := -1 // index into Plan.Partitions, -1 = none
	// closedEarly marks partition windows whose byte budget healed them
	// before their scheduled end; they must not reopen.
	closedEarly := make([]bool, len(w.Plan.Partitions))
	// The loop runs until every still-relevant window has closed. A partition
	// window its byte budget closed early stops contributing, so a budget
	// genuinely shortens the run; without budgets this is the plan's static
	// horizon on every tick.
	for next < len(w.Script) || c.Now() < w.Plan.horizon(closedEarly) {
		if c.Now() > maxTicks {
			if next < len(w.Script) {
				return nil, fmt.Errorf("sim: chaos run did not finish its script within %d ticks (%d/%d ops issued)",
					maxTicks, next, len(w.Script))
			}
			return nil, fmt.Errorf("sim: chaos run finished its script (%d/%d ops issued), but its %s was still open after %d ticks",
				next, len(w.Script), w.Plan.openWindow(closedEarly), maxTicks)
		}
		// 1. Open and close fault windows scheduled for this tick. Windows
		// are applied in plan order, deterministically. A window whose byte
		// budget is exhausted closes early and stays closed.
		if activePart != -1 {
			pw := w.Plan.Partitions[activePart]
			if pw.MaxInFlightBytes > 0 && c.net.InFlightBytesAcross() > pw.MaxInFlightBytes {
				closedEarly[activePart] = true
				c.stats.PartsClosedEarly++
			}
		}
		want := -1
		for i, pw := range w.Plan.Partitions {
			if pw.From <= c.Now() && c.Now() < pw.To && !closedEarly[i] {
				want = i
				break
			}
		}
		if want != activePart {
			if activePart != -1 {
				c.Heal()
			}
			if want != -1 {
				if err := c.Partition(w.Plan.Partitions[want].Groups...); err != nil {
					return nil, err
				}
			}
			activePart = want
		}
		for _, cw := range w.Plan.Crashes {
			if cw.From == c.Now() {
				if err := c.Crash(cw.Node); err != nil {
					return nil, err
				}
			}
			if cw.To == c.Now() && c.Down(cw.Node) {
				if err := c.Recover(cw.Node, cw.Fresh); err != nil {
					return nil, err
				}
			}
		}
		// 2. Try to issue the next scripted operation. A crashed node makes
		// the script wait; a failed precondition pulls in whatever is
		// deliverable at the node (its visibility is behind the validation
		// cluster GenScript drained after every op).
		if next < len(w.Script) {
			so := w.Script[next]
			if !c.Down(so.Node) {
				if w.SyncInvokes {
					if err := c.drainTo(so.Node); err != nil {
						return nil, err
					}
				}
				_, _, err := c.Invoke(so.Node, so.Op)
				switch {
				case err == nil:
					next++
				case errors.Is(err, crdt.ErrAssume):
					for _, mid := range c.Deliverable(so.Node) {
						if derr := c.Deliver(so.Node, mid); derr != nil && !errors.Is(derr, ErrCorruptPayload) {
							return nil, derr
						}
					}
				default:
					return nil, err
				}
			}
		}
		// 3. Deliver a seeded number of random deliverable copies.
		for k := 1 + sched.Intn(3); k > 0 && c.DeliverRandom(sched); k-- {
		}
		c.Tick()
	}
	// 4. Stabilize: close any remaining pathology and drain to quiescence.
	// A node still down here had a crash window closing exactly at the loop's
	// exit tick; recover it in the mode its window prescribes.
	c.Heal()
	for t := 0; t < c.N(); t++ {
		if !c.Down(model.NodeID(t)) {
			continue
		}
		fresh := false
		for _, cw := range w.Plan.Crashes {
			if cw.Node == model.NodeID(t) {
				fresh = cw.Fresh
			}
		}
		if err := c.Recover(model.NodeID(t), fresh); err != nil {
			return nil, err
		}
	}
	c.DeliverAll()
	if c.Pending() > 0 {
		return nil, fmt.Errorf("sim: chaos run failed to quiesce: %d copies still pending", c.Pending())
	}
	return &ChaosReport{Cluster: c, Trace: c.Trace(), Stats: c.FaultStats(), Ticks: c.Now()}, nil
}

// drainTo delivers every copy addressed to dst, advancing the virtual clock
// past latency windows as needed (SyncInvokes mode; requires no partition or
// crash blocking the node).
func (c *Cluster) drainTo(dst model.NodeID) error {
	if !c.drain(func() int { return c.PendingTo(dst) }, int(dst), int(dst)+1) {
		return fmt.Errorf("sim: node %s cannot drain: %d copies blocked", dst, c.PendingTo(dst))
	}
	if c.Now() > maxTicks {
		return fmt.Errorf("sim: draining node %s exceeded %d ticks", dst, maxTicks)
	}
	return nil
}
