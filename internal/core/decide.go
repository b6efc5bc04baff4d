package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/trace"
)

// condition is what sets XACC (Def 9) apart from ACC (Def 3). A UCR
// specification is the X-wins case with ◀ = ▷ = ∅ (Sec 2.4): RCoh is then
// Coh and PresvCancel holds trivially. So one exhaustive decider (decide)
// and one witness (witness) run over either condition, and a condition
// carries only what differs: the premise, the orderings every order must
// respect beyond visibility, how the witness orients conflicting pairs, the
// per-node check after ExecRelated, pairwise agreement and the reason texts.
type condition interface {
	// start checks the condition's premise on a well-formed trace and
	// precomputes what the other methods read.
	start(tr trace.Trace) error
	// must adds to before the pairs every arbitration order over vis, the
	// operations visible at a node, respects beyond visibility.
	must(vis []trace.Event, before map[[2]model.MsgID]bool)
	// orient adds the witness's edges between conflicting operations of vis,
	// the operations visible at t, each labelled with its relation.
	orient(tr trace.Trace, t model.NodeID, vis []trace.Event, edge func(i, j int, rel string))
	// pairs precomputes node t's share of agree; nil when agree needs none.
	pairs(tr trace.Trace, t model.NodeID) map[[2]model.MsgID]bool
	// check is the per-node check after ExecRelated: a failure's reason,
	// or "".
	check(ord Order) string
	// agree reports whether two nodes' orders, with their pairs, agree.
	agree(a, b Order, pa, pb map[[2]model.MsgID]bool) bool
	texts() *texts
}

// texts are a condition's reason texts.
type texts struct {
	bound    string // appended to the exhaustive bound's error
	noOrder  string // what no arbitration order of a node does
	noCombo  string // no combination of per-node orders agrees
	union    string // the relations a witness order sorts by
	disagree string // what two nodes' witness orders do
}

// decide searches, per node, every arbitration order that extends
// visibility, respects c.must and satisfies ExecRelated, then backtracks
// over the nodes for a combination that pairwise agrees — a complete
// decision procedure for bounded traces.
func decide(tr trace.Trace, p Problem, c condition) (Result, error) {
	if err := tr.CheckWellFormed(); err != nil {
		return Result{}, err
	}
	if err := c.start(tr); err != nil {
		return Result{}, err
	}
	nodes := tr.Nodes()
	// The per-node work only reads the trace and the problem, so run the
	// nodes concurrently; errors and empty candidate sets are reported in
	// node order, so the outcome does not depend on scheduling.
	cands := make([][]Order, len(nodes))
	pairs := make([]map[[2]model.MsgID]bool, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, t := range nodes {
		wg.Add(1)
		go func(i int, t model.NodeID) {
			defer wg.Done()
			cands[i], errs[i] = candidateOrders(tr, t, p, c)
			if errs[i] == nil {
				pairs[i] = c.pairs(tr, t)
			}
		}(i, t)
	}
	wg.Wait()
	for i, t := range nodes {
		if errs[i] != nil {
			return Result{}, errs[i]
		}
		if len(cands[i]) == 0 {
			return Result{Reason: fmt.Sprintf("node %s: no arbitration order %s", t, c.texts().noOrder)}, nil
		}
	}
	chosen := make([]Order, len(nodes))
	var pick func(i int) bool
	pick = func(i int) bool {
		if i == len(nodes) {
			return true
		}
	next:
		for _, cand := range cands[i] {
			for j := 0; j < i; j++ {
				if !c.agree(chosen[j], cand, pairs[j], pairs[i]) {
					continue next
				}
			}
			chosen[i] = cand
			if pick(i + 1) {
				return true
			}
		}
		return false
	}
	if !pick(0) {
		return Result{Reason: c.texts().noCombo}, nil
	}
	out := map[model.NodeID]Order{}
	for i, t := range nodes {
		out[t] = chosen[i]
	}
	return Result{OK: true, Orders: out}, nil
}

// candidateOrders enumerates every total order over visible(E, t) that
// extends the visibility order of node t, respects c.must and satisfies
// ExecRelated_φ(t, (E, S), (Γ, ar)).
func candidateOrders(tr trace.Trace, t model.NodeID, p Problem, c condition) ([]Order, error) {
	vis := tr.VisibleEvents(t)
	if len(vis) > MaxVisible {
		return nil, fmt.Errorf("core: node %s sees %d operations, exceeding the exhaustive bound %d%s",
			t, len(vis), MaxVisible, c.texts().bound)
	}
	items := make([]model.MsgID, len(vis))
	for i, e := range vis {
		items[i] = e.MID
	}
	before := tr.VisPairs(t)
	c.must(vis, before)
	var out []Order
	forEachLinearExtension(items, before, func(ord Order) {
		if execRelated(tr, t, ord, p) {
			out = append(out, append(Order(nil), ord...))
		}
	})
	return out, nil
}

// witness decides a condition constructively: instead of searching every
// arbitration order it builds one per node (witnessOrder), then checks
// ExecRelated, c.check and pairwise agreement directly. It scales to long
// traces, but a failure only means the witness failed, not that no
// arbitration order exists.
func witness(tr trace.Trace, p Problem, c condition) (Result, error) {
	if err := tr.CheckWellFormed(); err != nil {
		return Result{}, err
	}
	if err := c.start(tr); err != nil {
		return Result{}, err
	}
	nodes := tr.Nodes()
	orders := map[model.NodeID]Order{}
	pairs := make([]map[[2]model.MsgID]bool, len(nodes))
	for i, t := range nodes {
		ord, err := witnessOrder(tr, t, c)
		if err != nil {
			return Result{Reason: fmt.Sprintf("node %s: %v", t, err)}, nil
		}
		if !execRelated(tr, t, ord, p) {
			return Result{Reason: fmt.Sprintf("node %s: witness order %v fails ExecRelated", t, ord)}, nil
		}
		if reason := c.check(ord); reason != "" {
			return Result{Reason: fmt.Sprintf("node %s: %s", t, reason)}, nil
		}
		orders[t] = ord
		pairs[i] = c.pairs(tr, t)
	}
	for i, t1 := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			t2 := nodes[j]
			if !c.agree(orders[t1], orders[t2], pairs[i], pairs[j]) {
				return Result{Reason: fmt.Sprintf("witness orders of %s and %s %s", t1, t2, c.texts().disagree)}, nil
			}
		}
	}
	return Result{OK: true, Orders: orders}, nil
}

// witnessOrder topologically sorts visible(E, t) by the node's visibility
// order together with the edges c.orient adds, breaking ties by the
// smallest MsgID (Kahn's algorithm). If the union is cyclic it fails and
// names one cycle, with the relation behind each edge.
func witnessOrder(tr trace.Trace, t model.NodeID, c condition) (Order, error) {
	vis := tr.VisibleEvents(t)
	n := len(vis)
	idx := make(map[model.MsgID]int, n)
	for i, e := range vis {
		idx[e.MID] = i
	}
	type edge struct {
		to  int
		rel string
	}
	adj := make([][]edge, n) // i -> j: i must precede j
	indeg := make([]int, n)
	add := func(i, j int, rel string) {
		adj[i] = append(adj[i], edge{j, rel})
		indeg[j]++
	}
	// Visibility: e ↦vis e' when e reached t before t issued e'.
	var reached []int
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		j := idx[e.MID]
		if e.IsOrigin {
			for _, i := range reached {
				if i != j {
					add(i, j, "vis")
				}
			}
		}
		reached = append(reached, j)
	}
	c.orient(tr, t, vis, add)
	var frontier []int
	for i := range vis {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	out := make(Order, 0, n)
	for len(frontier) > 0 {
		k := 0
		for f := range frontier {
			if vis[frontier[f]].MID < vis[frontier[k]].MID {
				k = f
			}
		}
		i := frontier[k]
		frontier[k] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		out = append(out, vis[i].MID)
		for _, e := range adj[i] {
			if indeg[e.to]--; indeg[e.to] == 0 {
				frontier = append(frontier, e.to)
			}
		}
	}
	if len(out) == n {
		return out, nil
	}
	// Every operation left unsorted (indeg > 0) has a predecessor left
	// unsorted, so walking predecessors from one of them revisits one; the
	// operations in between form a cycle.
	at := map[int]int{} // operation -> its step in walk
	var walk []int
	var rels []string // rels[k] labels the edge into walk[k] from walk[k+1]
	j := 0
	for indeg[j] == 0 {
		j++
	}
	for {
		if _, seen := at[j]; seen {
			break
		}
		at[j] = len(walk)
		walk = append(walk, j)
		i, rel := -1, ""
		for u := 0; i < 0; u++ {
			for _, e := range adj[u] {
				if e.to == j && indeg[u] > 0 {
					i, rel = u, e.rel
					break
				}
			}
		}
		rels = append(rels, rel)
		j = i
	}
	// Walked backwards, the cycle is walk[at[j]:]; print it forwards, from
	// its smallest MsgID, each edge labelled with its relation.
	var cyc []int
	for k := len(walk) - 1; k >= at[j]; k-- {
		cyc = append(cyc, walk[k])
	}
	first := 0
	for k := range cyc {
		if vis[cyc[k]].MID < vis[cyc[first]].MID {
			first = k
		}
	}
	var b strings.Builder
	for k := range cyc {
		from, to := cyc[(first+k)%len(cyc)], cyc[(first+k+1)%len(cyc)]
		fmt.Fprintf(&b, "%s %s ─%s→ ", vis[from].MID, vis[from].Op, rels[at[to]])
	}
	b.WriteString(vis[cyc[first]].MID.String())
	return nil, fmt.Errorf("%s is cyclic over %d visible operations: %s", c.texts().union, n, b.String())
}
