package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Stats summarizes the shape of an execution trace.
type Stats struct {
	// Events is the total event count; Origins and Deliveries split it.
	Events, Origins, Deliveries int
	// Queries counts read-only origin events.
	Queries int
	// PerNode maps each node to its (origins, deliveries) counts.
	PerNode map[model.NodeID][2]int
	// ConcurrentPairs counts unordered origin-event pairs that are causally
	// concurrent; OrderedPairs counts the happens-before related ones.
	ConcurrentPairs, OrderedPairs int
	// Causal reports whether the trace satisfies causal delivery.
	Causal bool
}

// Concurrency is the fraction of origin-event pairs that are concurrent
// (0 when there are fewer than two origin events).
func (s Stats) Concurrency() float64 {
	total := s.ConcurrentPairs + s.OrderedPairs
	if total == 0 {
		return 0
	}
	return float64(s.ConcurrentPairs) / float64(total)
}

// String renders the statistics on one line per aspect.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events (%d origins, %d queries, %d deliveries), causal=%v, concurrency=%.0f%%\n",
		s.Events, s.Origins, s.Queries, s.Deliveries, s.Causal, 100*s.Concurrency())
	nodes := make([]int, 0, len(s.PerNode))
	for n := range s.PerNode {
		nodes = append(nodes, int(n))
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		c := s.PerNode[model.NodeID(n)]
		fmt.Fprintf(&b, "  %s: %d issued, %d received\n", model.NodeID(n), c[0], c[1])
	}
	return b.String()
}

// Summarize computes the statistics of a trace.
func Summarize(tr Trace) Stats {
	hb := tr.HappensBefore()
	s := Stats{PerNode: map[model.NodeID][2]int{}, Causal: tr.CausalDeliveryOver(hb)}
	s.Events = len(tr)
	for _, e := range tr {
		c := s.PerNode[e.Node]
		if e.IsOrigin {
			s.Origins++
			if e.IsQuery() {
				s.Queries++
			}
			c[0]++
		} else {
			s.Deliveries++
			c[1]++
		}
		s.PerNode[e.Node] = c
	}
	origins := tr.Origins()
	for i, a := range origins {
		for _, b := range origins[i+1:] {
			if Concurrent(hb, a.MID, b.MID) {
				s.ConcurrentPairs++
			} else {
				s.OrderedPairs++
			}
		}
	}
	return s
}
