package sim

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file holds the snapshot checkpoint layer on the cluster's durable
// broadcast log. Without it, a fresh replacement replica resyncs by
// replaying the whole log — the log grows without bound and the resync cost
// grows with history. With WithSnapshots the cluster periodically
// checkpoints the *stable frontier* — the set of broadcasts applied by every
// node — into a canonically encoded state snapshot, truncates the log up to
// that frontier, and resyncs fresh replicas from the decoded snapshot plus
// the retained log suffix.
//
// Why the stable frontier is the only safe truncation point: a fresh resync
// must append a delivery event (carrying the op and effector) for every
// broadcast the recovering node had not yet applied, and a truncated log
// entry can no longer supply one. Truncating only broadcasts applied by ALL
// nodes guarantees truncated ⊆ applied_t for every node t at checkpoint
// time — applied sets only grow, so at any later resync every broadcast that
// still needs a new trace event is in the retained suffix. The snapshot
// state itself is maintained as a shadow replica that applies exactly the
// covered broadcasts in MsgID order — an order consistent with
// happens-before, so it is a legal schedule and (by convergence) equals any
// replica that applied the same set.

// snapshot is the current checkpoint: the transport-layer shadow replica
// (shared with the socket peers' compaction — one Checkpoint implementation,
// two users), plus its encoded wire form (a checksummed codec frame around
// the canonical state encoding — the bytes a real system would ship to a
// joining replica, and what resyncFresh decodes back).
type snapshot struct {
	ck   *transport.Checkpoint
	wire []byte
}

// WithSnapshots enables snapshot checkpoints: after every `every` appends to
// the broadcast log the cluster checkpoints the stable frontier, truncates
// the log up to it, and fresh recoveries resync from the decoded snapshot
// plus the retained log. dec must be the algorithm's registered state
// decoder (registry.Algorithm.DecodeState); it is exercised on every
// snapshot resync, so an unregistered or wrong decoder fails loudly there.
func WithSnapshots(every int, dec crdt.StateDecoder) Option {
	if every < 1 {
		panic("sim: snapshot interval must be at least 1")
	}
	if dec == nil {
		panic("sim: snapshots need a state decoder")
	}
	return func(c *Cluster) {
		c.snapEvery = every
		c.decState = dec
	}
}

// LogLen returns the number of entries currently retained in the broadcast
// log (after any checkpoint truncation).
func (c *Cluster) LogLen() int { return len(c.msglog) }

// SnapshotCovered returns how many broadcasts the current snapshot
// checkpoint covers (0 before the first checkpoint).
func (c *Cluster) SnapshotCovered() int {
	if c.snap == nil {
		return 0
	}
	return len(c.snap.ck.Covered)
}

// appendLog records one broadcast in the durable log and counts toward the
// checkpoint interval.
func (c *Cluster) appendLog(m *message) {
	c.msglog = append(c.msglog, m)
	c.tickCheckpoint()
}

// tickCheckpoint counts one replication event (a log append or a remote
// apply) and checkpoints when the configured interval elapsed. Remote
// applies count because they are what advances the stable frontier: a log
// that stops growing can still become fully stable.
func (c *Cluster) tickCheckpoint() {
	if c.snapEvery == 0 {
		return
	}
	c.sinceCkpt++
	if c.sinceCkpt >= c.snapEvery {
		c.sinceCkpt = 0
		c.checkpoint()
	}
}

// checkpoint advances the snapshot to the current stable frontier and
// truncates the log up to it. A frontier that has not moved since the last
// checkpoint leaves everything unchanged (and uncounted).
func (c *Cluster) checkpoint() {
	// The stable frontier: broadcasts applied by every node. Every broadcast
	// not yet covered is still in the retained log, so that is all to test.
	stable := map[model.MsgID]crdt.Effector{}
	for _, m := range c.msglog {
		everywhere := true
		for t := range c.applied {
			everywhere = everywhere && c.applied[t].Applied(int(m.from), m.mid)
		}
		if everywhere {
			stable[m.mid] = m.rec.Eff
		}
	}
	if len(stable) == 0 {
		return
	}
	if c.snap == nil {
		c.snap = &snapshot{ck: transport.NewCheckpoint(c.obj.Init())}
	}
	c.snap.ck.Advance(stable)
	c.snap.wire = codec.AppendFrame(nil, c.snap.ck.State.AppendBinary(nil))
	retained := c.msglog[:0]
	truncated := 0
	for _, m := range c.msglog {
		if c.snap.ck.Covered[m.mid] {
			truncated++
			continue
		}
		retained = append(retained, m)
	}
	c.msglog = retained
	c.stats.Checkpoints++
	c.stats.LogTruncated += truncated
	c.stats.SnapshotBytes += len(c.snap.wire)
}

// RecoveryNote records how one fresh-replica resync was served; divergence
// reports and crdt-sim render these so a failing chaos run shows whether
// snapshot recovery was involved.
type RecoveryNote struct {
	Node model.NodeID
	Tick int
	// FromSnapshot is true when the replica state was restored by decoding
	// the checkpoint snapshot (false: full log replay).
	FromSnapshot bool
	// SnapshotBytes is the size of the decoded snapshot frame (0 without one).
	SnapshotBytes int
	// Replayed counts retained log entries applied on top of the snapshot
	// (or, without one, log entries replayed).
	Replayed int
	// NewEvents counts the delivery events appended for broadcasts the node
	// had not applied before the crash.
	NewEvents int
}

// String renders the note compactly.
func (n RecoveryNote) String() string {
	src := "log replay"
	if n.FromSnapshot {
		src = fmt.Sprintf("snapshot (%dB)", n.SnapshotBytes)
	}
	return fmt.Sprintf("node %s resynced at tick %d from %s: %d entries replayed, %d new deliveries",
		n.Node, n.Tick, src, n.Replayed, n.NewEvents)
}

// RecoveryNotes returns the fresh-replica resyncs performed so far.
func (c *Cluster) RecoveryNotes() []RecoveryNote {
	return append([]RecoveryNote(nil), c.recov...)
}

// resyncFresh replaces node t's replica: the in-flight queue is discarded
// (everything in it is either covered by the snapshot or retained in the
// log) and the state is rebuilt from the durable history. With a snapshot
// checkpoint the state is *decoded from the snapshot's wire bytes* — the
// registered StateDecoder runs on every resync — and every retained log
// entry is applied on top in MsgID order; without one the whole log replays
// onto the node's durable state, the pre-snapshot behaviour. Either way a
// delivery event is appended for every broadcast the node had not applied,
// so the trace stays well-formed and per-node replayable.
func (c *Cluster) resyncFresh(t model.NodeID) error {
	c.stats.Resyncs++
	c.net.Clear(t)
	note := RecoveryNote{Node: t, Tick: c.Now()}
	if c.snap != nil {
		inner, err := codec.Unframe(c.snap.wire)
		var st crdt.State
		if err == nil {
			st, err = c.decState(inner)
		}
		if err != nil {
			return fmt.Errorf("sim: resync %s: snapshot does not decode with the registered state decoder: %v", t, err)
		}
		// Node t had applied everything covered (the truncation invariant).
		// Replace the state and re-apply the whole retained suffix: entries t
		// had applied are in neither the snapshot nor the replaced state, but
		// only previously unapplied ones get new trace events.
		c.states[t], c.owned[t] = st, true
		note.FromSnapshot = true
		note.SnapshotBytes = len(c.snap.wire)
		c.stats.SnapshotResyncs++
	}
	for _, m := range c.msglog {
		had := c.applied[t].Applied(int(m.from), m.mid) // before the crash, or its own
		if had && !note.FromSnapshot {
			continue
		}
		c.apply(t, m.rec.Eff)
		note.Replayed++
		if had {
			continue
		}
		c.applied[t].MarkApplied(int(m.from), m.mid, m.pred())
		note.NewEvents++
		c.tr = append(c.tr, trace.Event{Record: m.rec, MID: m.mid, Node: t, Origin: m.from})
	}
	c.recov = append(c.recov, note)
	return nil
}
