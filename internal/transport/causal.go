package transport

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/codec"
	"repro/internal/model"
)

// CausalContext is the delivery rule of Sec 3 that Peer and sim.Cluster
// share: a replica's applied effectors and the deps-met test over them. Peer
// holds a frame back until its deps are met; the simulator refuses an early
// delivery. The set is bounded by the frontier, not the history: a version
// vector plus a dot cloud (Almeida, arXiv 2310.18220). Every origin-o
// effector up to base[o] is applied; gaps maps each mid applied above its
// origin's base to its origin and own-origin predecessor; front[o] is the
// highest origin-o mid applied (DESIGN.md, "Causal frontier deps"). Callers
// name each mid's origin and predecessor: Peer from the Lamport layout, the
// simulator from a message's sender and that sender's previous broadcast.
type CausalContext struct {
	base, front []model.MsgID
	gaps        map[model.MsgID]dot
}

// dot is one gap entry: an applied mid's origin and own-origin predecessor.
type dot struct {
	origin int
	pred   model.MsgID
}

// NewCausalContext returns the empty context over n origins.
func NewCausalContext(n int) CausalContext {
	w := make([]model.MsgID, 2*n)
	return CausalContext{base: w[:n:n], front: w[n:]}
}

// Clone returns an independent copy.
func (c *CausalContext) Clone() CausalContext {
	w, n := slices.Concat(c.base, c.front), len(c.base)
	return CausalContext{base: w[:n:n], front: w[n:], gaps: maps.Clone(c.gaps)}
}

// Applied reports whether the effector mid, of origin o, has been applied.
// A non-positive mid names no effector and is never applied, whatever o.
func (c *CausalContext) Applied(o int, mid model.MsgID) bool {
	if mid <= 0 {
		return false
	}
	_, gap := c.gaps[mid]
	return gap || mid <= c.base[o]
}

// DepsMet reports whether every dependency in deps has been applied; origin
// names each one's origin. Peer tests a frame's deps, its sender's frontier.
func (c *CausalContext) DepsMet(deps []model.MsgID, origin func(model.MsgID) int) bool {
	for _, d := range deps {
		if !c.Applied(origin(d), d) {
			return false
		}
	}
	return true
}

// Covers is DepsMet on d's frontier, whose positions name the origins. The
// simulator's messages carry their sender's whole context.
func (c *CausalContext) Covers(d *CausalContext) bool {
	for o, mid := range d.front {
		if mid != 0 && !c.Applied(o, mid) {
			return false
		}
	}
	return true
}

// MarkApplied records the effector mid, of origin o and with own-origin
// predecessor pred (0 for o's first), as applied. If pred is within o's
// base, mid extends the base and each gap entry that then chains on is
// absorbed; otherwise mid waits in gaps.
func (c *CausalContext) MarkApplied(o int, mid, pred model.MsgID) {
	c.front[o] = max(c.front[o], mid)
	if pred > c.base[o] {
		if c.gaps == nil {
			c.gaps = map[model.MsgID]dot{}
		}
		c.gaps[mid] = dot{origin: o, pred: pred}
		return
	}
	c.base[o] = max(c.base[o], mid)
	for m, d := range c.gaps {
		if d.pred <= c.base[d.origin] {
			delete(c.gaps, m)
			c.MarkApplied(d.origin, m, d.pred)
		}
	}
}

// Front returns the highest origin-o mid applied, 0 for none.
func (c *CausalContext) Front(o int) model.MsgID { return c.front[o] }

// Frontier returns the causal frontier as a sorted dependency list: at most
// one mid per origin.
func (c *CausalContext) Frontier() []model.MsgID {
	deps := make([]model.MsgID, 0, len(c.front))
	for _, mid := range c.front {
		if mid != 0 {
			deps = append(deps, mid)
		}
	}
	slices.Sort(deps)
	return deps
}

// AppendBinary appends the context's canonical encoding: the watermarks,
// then each gap entry (mid, origin, predecessor) in mid order. The frontier
// follows from those, so equal applied sets encode byte-equal.
func (c *CausalContext) AppendBinary(b []byte) []byte {
	for _, w := range c.base {
		b = codec.AppendUvarint(b, uint64(w))
	}
	b = codec.AppendUvarint(b, uint64(len(c.gaps)))
	if len(c.gaps) == 0 {
		return b
	}
	mids := make([]model.MsgID, 0, len(c.gaps))
	for mid := range c.gaps {
		mids = append(mids, mid)
	}
	slices.Sort(mids)
	for _, mid := range mids {
		b = codec.AppendUvarint(b, uint64(mid))
		b = codec.AppendUvarint(b, uint64(c.gaps[mid].origin))
		b = codec.AppendUvarint(b, uint64(c.gaps[mid].pred))
	}
	return b
}

// openGaps names each origin's open gap: its base and the mids above it.
func (c *CausalContext) openGaps() string {
	if len(c.gaps) == 0 {
		return ""
	}
	above := make([]int, len(c.base))
	for _, d := range c.gaps {
		above[d.origin]++
	}
	gap := ""
	for o, n := range above {
		switch {
		case n == 1:
			gap += fmt.Sprintf(", origin %d above %s (1 frame)", o, c.base[o])
		case n > 1:
			gap += fmt.Sprintf(", origin %d above %s (%d frames)", o, c.base[o], n)
		}
	}
	return ", gap:" + gap[1:]
}
