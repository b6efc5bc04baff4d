package sim

import (
	"maps"

	"repro/internal/codec"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Clone deep-copies the cluster so exhaustive explorers can branch. Replica
// states are shared, so both sides give up owning them. Effectors and
// messages are immutable and shared too (the transport replaces a partially
// consumed duplicate copy-on-write, so the sharing stays safe), and so is
// the link-fault RNG: explorers operate on clean clusters, and chaos runs
// never branch.
func (c *Cluster) Clone() *Cluster {
	cp := &Cluster{
		obj: c.obj, causal: c.causal, nextMID: c.nextMID,
		net: c.net.Clone(), faults: c.faults, stats: c.stats, dec: c.dec,
		snapEvery: c.snapEvery, decState: c.decState, sinceCkpt: c.sinceCkpt,
	}
	cp.states = append(cp.states, c.states...)
	clear(c.owned)
	cp.owned = make([]bool, len(c.owned))
	// Room for one more event: an explorer's clone takes one step before it
	// is cloned again, and that step's Invoke or Deliver appends one event.
	cp.tr = append(make(trace.Trace, 0, len(c.tr)+1), c.tr...)
	cp.down = append([]bool(nil), c.down...)
	cp.msglog = append([]*message(nil), c.msglog...)
	cp.recov = append([]RecoveryNote(nil), c.recov...)
	if c.snap != nil {
		cp.snap = &snapshot{ck: c.snap.ck.Clone(), wire: c.snap.wire}
	}
	cp.applied = make([]transport.CausalContext, len(c.applied))
	for t := range c.applied {
		cp.applied[t] = c.applied[t].Clone()
	}
	cp.dropped = make([]map[model.MsgID]bool, len(c.dropped))
	for t, d := range c.dropped {
		cp.dropped[t] = maps.Clone(d)
	}
	return cp
}

// AppendBinary canonically renders the cluster's future-relevant state —
// the virtual clock, each replica's state, crash flag, pending messages
// (with their effectors, deps, remaining copies and arrival ticks) and
// causal context — through the canonical codec. State and effector
// encodings are length-prefixed so the stream parses unambiguously whatever
// the algorithm, and every collection is emitted in sorted order, so equal
// configurations produce byte-equal encodings. Message contents are
// included because two exploration branches may reuse the same MsgID for
// different operations; copies and arrival ticks are included so faulty
// schedules — where the same MsgID can still have duplicates queued or a
// latency window pending — never collide with states whose futures differ.
// The dropped sets are excluded: a dropped message is never delivered, and
// whatever waits on it stays queued, which the encoding shows.
func (c *Cluster) AppendBinary(b []byte) []byte {
	var scratch []byte
	b = codec.AppendUvarint(b, uint64(c.net.Now()))
	for t, s := range c.states {
		scratch = s.AppendBinary(scratch[:0])
		b = codec.AppendBytes(b, scratch)
		b = codec.AppendBool(b, c.down[t])
		pend := c.net.Queue(model.NodeID(t))
		b = codec.AppendUvarint(b, uint64(len(pend)))
		for _, q := range pend {
			msg := q.Item.(*message)
			b = codec.AppendUvarint(b, uint64(q.Frame.MID))
			scratch = msg.eff.AppendBinary(scratch[:0])
			b = codec.AppendBytes(b, scratch)
			b = msg.deps.AppendBinary(b)
			b = codec.AppendUvarint(b, uint64(q.Copies))
			b = codec.AppendVarint(b, int64(q.ReadyAt))
		}
		b = c.applied[t].AppendBinary(b)
	}
	return b
}

// Fingerprint hashes tag (the explorer's script position) and the cluster's
// canonical binary rendering to 64 bits. Distinct configurations collide
// with probability ~2⁻⁶⁴ per pair — negligible at the explorers' state
// budgets — so the explorers dedup on fingerprints instead of interning
// rendered state strings.
func (c *Cluster) Fingerprint(tag uint64) uint64 {
	b := make([]byte, 0, 512)
	b = codec.AppendUvarint(b, tag)
	b = c.AppendBinary(b)
	return codec.Fingerprint(b)
}
