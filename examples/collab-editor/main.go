// Collab-editor replays the paper's list-CRDT figures on both list
// implementations — RGA (Fig 2) and the continuous sequence — and shows the
// phenomena that motivate ACC:
//
//   - Fig 3(a): concurrent inserts after the same anchor resolve identically
//     on every node (the higher-stamped insert lands closer to the anchor);
//   - Fig 3(b): visibility is preserved — an insert issued after observing
//     another is never reordered before it on the observing node;
//   - Fig 4: the continuous sequence can reach apqced, an outcome that
//     forces the two nodes to arbitrate non-conflicting operations in
//     different orders — the reason ACC allows per-node arbitration orders.
package main

import (
	"fmt"
	"log"
	"math/big"
	"strings"

	"repro/internal/core"
	"repro/internal/crdts/cseq"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	fig3a()
	fig3b()
	fig4()
}

func addAfter(a, b string) model.Op {
	anchor := model.Str(a)
	if anchor.Equal(spec.Sentinel) {
		anchor = spec.Sentinel
	}
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, model.Str(b))}
}

func must1(c *sim.Cluster, node model.NodeID, op model.Op) model.MsgID {
	_, mid, err := c.Invoke(node, op)
	if err != nil {
		log.Fatal(err)
	}
	return mid
}

func read(c *sim.Cluster, node model.NodeID) string {
	ret, _, err := c.Invoke(node, model.Op{Name: spec.OpRead})
	if err != nil {
		log.Fatal(err)
	}
	return flat(ret)
}

func flat(list model.Value) string {
	elems, _ := list.AsList()
	var b strings.Builder
	for _, e := range elems {
		s, _ := e.AsString()
		b.WriteString(s)
	}
	return b.String()
}

func deliver(c *sim.Cluster, node model.NodeID, mids ...model.MsgID) {
	for _, mid := range mids {
		if err := c.Deliver(node, mid); err != nil {
			log.Fatal(err)
		}
	}
}

func certifyACC(c *sim.Cluster, alg registry.Algorithm, label string) {
	res, err := core.CheckACC(c.Trace(), core.Problem{Object: c.Object(), Spec: alg.Spec, Abs: alg.Abs})
	if err != nil {
		log.Fatal(err)
	}
	if !res.OK {
		log.Fatalf("%s: ACC violated: %s", label, res.Reason)
	}
	fmt.Printf("  ACC certified for %s\n\n", label)
}

// fig3a: t1 and t2 concurrently insert b and c after a on RGA.
func fig3a() {
	fmt.Println("Fig 3(a) — concurrent inserts on RGA:")
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	a := must1(c, 0, addAfter("◦", "a"))
	deliver(c, 1, a)
	b := must1(c, 0, addAfter("a", "b"))
	cc := must1(c, 1, addAfter("a", "c"))
	deliver(c, 1, b)
	deliver(c, 0, cc)
	x, y := read(c, 0), read(c, 1)
	fmt.Printf("  t1 reads %q, t2 reads %q (paper: both acb)\n", x, y)
	certifyACC(c, alg, "Fig 3(a)")
}

// fig3b: t2 inserts c only after observing b, so every node orders b first.
func fig3b() {
	fmt.Println("Fig 3(b) — visibility preserved on RGA:")
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	a := must1(c, 0, addAfter("◦", "a"))
	deliver(c, 1, a)
	b := must1(c, 0, addAfter("a", "b"))
	deliver(c, 1, b)
	u := read(c, 1)
	fmt.Printf("  t2 reads u = %q after receiving addAfter(a,b)\n", u)
	cc := must1(c, 1, addAfter("a", "c"))
	deliver(c, 0, cc)
	x, y := read(c, 0), read(c, 1)
	fmt.Printf("  final reads: x = %q, y = %q (paper: both acb — c is newer, so it sits closer to a)\n", x, y)
	certifyACC(c, alg, "Fig 3(b)")
}

// fig4: the continuous sequence reads apqced, which forces the two nodes to
// arbitrate the non-conflicting pairs (①,④) and (②,③) differently.
func fig4() {
	fmt.Println("Fig 4 — per-node arbitration orders on the continuous sequence:")
	// The outcome depends on which tags the gaps happen to produce; realise
	// the paper's "as long as the tag of ① is smaller than ④'s …" with an
	// explicit chooser.
	chosen := map[model.MsgID]*big.Rat{
		3: big.NewRat(-2, 1), // ① p under a
		4: big.NewRat(5, 1),  // ② d under c
		5: big.NewRat(4, 1),  // ③ e under c (below ②)
		6: big.NewRat(-1, 1), // ④ q under a (above ①)
	}
	obj := cseq.NewWithChooser(func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat {
		if r, ok := chosen[mid]; ok {
			return r
		}
		return cseq.Midpoint(lo, hi, origin, mid)
	})
	alg := registry.CSeq()
	c := sim.NewCluster(obj, 2)
	a := must1(c, 0, addAfter("◦", "a"))
	deliver(c, 1, a)
	cOp := must1(c, 0, addAfter("a", "c"))
	deliver(c, 1, cOp)
	p := must1(c, 0, addAfter("a", "p")) // ①
	d := must1(c, 0, addAfter("c", "d")) // ②
	e := must1(c, 1, addAfter("c", "e")) // ③
	q := must1(c, 1, addAfter("a", "q")) // ④
	deliver(c, 1, p, d)
	deliver(c, 0, e, q)
	u, v := read(c, 0), read(c, 1)
	fmt.Printf("  t1 reads %q, t2 reads %q (paper: both apqced)\n", u, v)
	res, err := core.CheckACC(c.Trace(), core.Problem{Object: obj, Spec: alg.Spec, Abs: alg.Abs})
	if err != nil {
		log.Fatal(err)
	}
	if !res.OK {
		log.Fatalf("Fig 4: ACC violated: %s", res.Reason)
	}
	tr := c.Trace()
	fmt.Println("  witnessing arbitration orders (note ①..④ ordered differently per node):")
	for _, node := range tr.Nodes() {
		var parts []string
		for _, mid := range res.Orders[node] {
			if mid < p { // skip the shared prefix for readability
				continue
			}
			orig, ok := tr.OriginOf(mid)
			if !ok {
				log.Fatalf("the order names %s, which has no origin event", mid)
			}
			parts = append(parts, fmt.Sprintf("%s", orig.Op))
		}
		fmt.Printf("    %s: %s\n", node, strings.Join(parts, " < "))
	}
	fmt.Println("  ACC certified for Fig 4 — coherence only binds conflicting pairs")
}
