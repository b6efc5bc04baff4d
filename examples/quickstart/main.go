// Quickstart: a three-node cluster running the Replicated Growable Array
// (RGA, Fig 2 of the paper), the CRDT behind collaboratively edited
// documents. Three users type concurrently, effectors propagate
// asynchronously and out of order, replicas converge — and the execution
// trace is certified against the paper's correctness condition ACC, with the
// atomic list specification as the abstraction.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	alg := registry.RGA()
	cluster := sim.NewCluster(alg.New(), 3)

	// Alice (node 0) writes the initial document: "H", "i".
	h := invoke(cluster, 0, addAfter("◦", "H"))
	i := invoke(cluster, 0, addAfter("H", "i"))
	// Her edits replicate to Bob (node 1) and Carol (node 2).
	deliver(cluster, 1, h, i)
	deliver(cluster, 2, h, i)
	fmt.Println("after Alice's edits:")
	show(cluster, alg)

	// Bob and Carol edit concurrently: Bob inserts "!" after "i", Carol
	// deletes "i" — a genuine conflict on the same element.
	bang := invoke(cluster, 1, addAfter("i", "!"))
	del := invoke(cluster, 2, model.Op{Name: spec.OpRemove, Arg: model.Str("i")})

	// The network reorders: Alice gets Carol's removal first, then Bob's
	// insert; Bob and Carol exchange directly.
	deliver(cluster, 0, del, bang)
	deliver(cluster, 1, del)
	deliver(cluster, 2, bang)
	fmt.Println("\nafter the concurrent edits (all effectors delivered):")
	show(cluster, alg)

	if abs, ok := cluster.Converged(alg.Abs); ok {
		fmt.Printf("\nreplicas converged to %s — the insert survives its tombstoned anchor\n", abs)
	} else {
		log.Fatal("replicas diverged!")
	}

	// Certify the execution against ACC (Defs 2–3): each node's local view
	// corresponds to an execution of atomic list operations, and the
	// per-node arbitration orders agree on conflicting operations.
	tr := cluster.Trace()
	res, err := core.CheckACC(tr, core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs})
	if err != nil {
		log.Fatal(err)
	}
	if !res.OK {
		log.Fatalf("ACC violated: %s", res.Reason)
	}
	fmt.Println("\nACC certified; per-node arbitration orders over the", len(tr.Origins()), "operations:")
	for _, node := range tr.Nodes() {
		fmt.Printf("  %s: ", node)
		for k, mid := range res.Orders[node] {
			if k > 0 {
				fmt.Print(" < ")
			}
			orig, ok := tr.OriginOf(mid)
			if !ok {
				log.Fatalf("the order names %s, which has no origin event", mid)
			}
			fmt.Print(orig.Op)
		}
		fmt.Println()
	}
}

// addAfter builds an addAfter(a, b) request; "◦" denotes the sentinel.
func addAfter(a, b string) model.Op {
	anchor := model.Str(a)
	if anchor.Equal(spec.Sentinel) {
		anchor = spec.Sentinel
	}
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, model.Str(b))}
}

func invoke(c *sim.Cluster, node model.NodeID, op model.Op) model.MsgID {
	_, mid, err := c.Invoke(node, op)
	if err != nil {
		log.Fatalf("invoke %s at %s: %v", op, node, err)
	}
	return mid
}

func deliver(c *sim.Cluster, node model.NodeID, mids ...model.MsgID) {
	for _, mid := range mids {
		if err := c.Deliver(node, mid); err != nil {
			log.Fatalf("deliver %s to %s: %v", mid, node, err)
		}
	}
}

func show(c *sim.Cluster, alg registry.Algorithm) {
	names := []string{"Alice", "Bob  ", "Carol"}
	for n := 0; n < c.N(); n++ {
		fmt.Printf("  %s (node %d) sees %s\n", names[n], n, alg.Abs(c.StateOf(model.NodeID(n))))
	}
}
