package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/crdt"
	"repro/internal/model"
)

// GenScript deterministically generates a script of ops operations over a
// nodes-replica cluster, using gen — the same generator the randomized
// workloads use. Each candidate operation is validated by invoking it on a
// scratch cluster that is fully drained after every step, so generator
// preconditions hold at generation time. During exploration a blocked invoke
// only waits for deliveries it depends on, which always exist because the
// explorer drops nothing, so generated scripts cannot deadlock a schedule.
func GenScript(obj crdt.Object, abs crdt.Abstraction, gen GenFunc, nodes, ops int, seed int64, causal bool) Script {
	rng := rand.New(rand.NewSource(seed))
	pool := []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	var opts []Option
	if causal {
		opts = append(opts, WithCausalDelivery())
	}
	c := NewCluster(obj, nodes, opts...)
	freshID := 0
	fresh := func() model.Value {
		freshID++
		return model.Str(fmt.Sprintf("x%d", freshID))
	}
	var script Script
	for attempts := 0; len(script) < ops; attempts++ {
		if attempts > 100*ops {
			panic(fmt.Sprintf("sim: generator for %s cannot produce %d acceptable operations", obj.Name(), ops))
		}
		t := model.NodeID(rng.Intn(nodes))
		// Rejection-sample operations whose preconditions fail, as the
		// randomized workloads do.
		op := gen(rng, c.states[t], abs, pool, fresh)
		if _, _, err := c.Invoke(t, op); err != nil {
			if errors.Is(err, crdt.ErrAssume) {
				continue
			}
			panic(err)
		}
		c.DeliverAll()
		script = append(script, ScriptOp{Node: t, Op: op})
	}
	return script
}

// GenFaultPlan deterministically generates a fault plan for a nodes-replica
// cluster whose interesting activity spans roughly horizon virtual-clock
// ticks: link faults drawn from moderate ranges, at most one transient
// partition window, and up to two non-overlapping crash windows on distinct
// nodes (fresh-resync or durable restart). The same (seed, nodes, horizon)
// always yields the same plan — the third coordinate of the chaos
// reproduction recipe (script, seed, plan).
func GenFaultPlan(seed int64, nodes, horizon int) FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	var p FaultPlan
	if rng.Intn(2) == 0 {
		p.Link.Loss = 0.05 + 0.20*rng.Float64()
	}
	if rng.Intn(3) > 0 {
		p.Link.Dup = 0.10 + 0.25*rng.Float64()
		p.Link.MaxDup = 1 + rng.Intn(2)
	}
	p.Link.DelayMax = rng.Intn(4)
	if nodes >= 2 && horizon >= 4 && rng.Intn(2) == 0 {
		from := rng.Intn(horizon / 2)
		to := from + 1 + rng.Intn(horizon/2)
		var a, b []model.NodeID
		for n := 0; n < nodes; n++ {
			if n == 0 || rng.Intn(2) == 0 { // node 0 anchors one side; both stay nonempty for nodes ≥ 2
				a = append(a, model.NodeID(n))
			} else {
				b = append(b, model.NodeID(n))
			}
		}
		if len(b) == 0 {
			b = append(b, a[len(a)-1])
			a = a[:len(a)-1]
		}
		p.Partitions = append(p.Partitions, PartitionWindow{From: from, To: to, Groups: [][]model.NodeID{a, b}})
	}
	if nodes >= 2 && horizon >= 4 {
		crashes := rng.Intn(3) // 0, 1 or 2 crash windows
		if crashes > nodes-1 {
			crashes = nodes - 1 // keep at least one node up; victims are distinct
		}
		perm := rng.Perm(nodes)
		for i := 0; i < crashes; i++ {
			from := rng.Intn(horizon / 2)
			to := from + 1 + rng.Intn(horizon/2)
			p.Crashes = append(p.Crashes, CrashWindow{
				Node: model.NodeID(perm[i]), From: from, To: to, Fresh: rng.Intn(2) == 0,
			})
		}
	}
	// Corruption parameters are drawn last so every earlier field of a
	// given seed's plan is identical to what the seed produced before the
	// wire codec existed — recorded reproduction recipes stay valid.
	if rng.Intn(3) > 0 {
		p.Link.Corrupt = 0.05 + 0.15*rng.Float64()
	}
	// Payload-aware budgets, again drawn after everything older: a per-KB
	// corruption rate that makes large effectors proportionally riskier, and a
	// byte budget that heals a partition window early once too many payload
	// bytes pile up against the cut.
	if rng.Intn(3) > 0 {
		p.Link.CorruptPerKB = 0.05 + 0.20*rng.Float64()
	}
	if len(p.Partitions) > 0 && rng.Intn(2) == 0 {
		p.Partitions[0].MaxInFlightBytes = 64 * (1 + rng.Intn(8))
	}
	return p
}
