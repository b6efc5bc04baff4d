package sim

import (
	"fmt"
	"testing"

	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/trace"
)

// TestAgreesWithVisibilityHB cross-validates the delivery rule's causal
// contexts against the trace layer's happens-before, which it derives from
// event visibility alone: on seeded causal runs of every algorithm, the
// broadcasts a message's frontier deps name, closed over their own deps,
// are exactly the broadcasts that happen before it, and the delivery rule
// they drive keeps the trace causally delivered. Queries are never
// broadcast, so they take part on neither side.
func TestAgreesWithVisibilityHB(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				w := Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: GenFunc(alg.GenOp),
					Nodes: 3, Steps: 40, Causal: true,
				}
				c := w.Run(seed)
				tr := c.Trace()
				if !tr.CausalDelivery() {
					t.Fatalf("seed %d: the trace violates causal delivery\n%s", seed, trace.Render(tr))
				}
				if err := sameHB(c.msglog, tr.HappensBefore()); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, trace.Render(tr))
				}
			}
		})
	}
}

// sameHB compares, for every broadcast in log (a cluster's untruncated
// broadcast log), the closure of its frontier deps with its broadcast
// predecessors in hb.
func sameHB(log []*message, hb map[model.MsgID]map[model.MsgID]bool) error {
	msgs := map[model.MsgID]*message{}
	for _, m := range log {
		msgs[m.mid] = m
	}
	for mid, m := range msgs {
		got := map[model.MsgID]bool{}
		var visit func(d model.MsgID)
		visit = func(d model.MsgID) {
			if !got[d] {
				got[d] = true
				for _, dd := range msgs[d].deps.Frontier() {
					visit(dd)
				}
			}
		}
		for _, d := range m.deps.Frontier() {
			visit(d)
		}
		for p := range hb[mid] {
			if msgs[p] != nil && !got[p] {
				return fmt.Errorf("visibility says %s → %s, the frontier deps disagree", p, mid)
			}
		}
		for p := range got {
			if !hb[mid][p] {
				return fmt.Errorf("the frontier deps say %s → %s, visibility disagrees", p, mid)
			}
		}
	}
	return nil
}
