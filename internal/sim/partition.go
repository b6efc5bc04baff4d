package sim

import (
	"fmt"

	"repro/internal/model"
)

// This file holds the availability faults: link partitions (messages queue
// across the cut until Heal) and node crashes (a crashed node serves nothing
// until Recover, which either resumes its durable state or resyncs a fresh
// replica from the latest snapshot checkpoint and the retained broadcast
// log — see snapshot.go). Partition membership is validated here; the link
// gating itself lives in the transport layer.

// Partition splits the cluster into link-disjoint groups: messages between
// nodes in different groups stop being deliverable (they stay queued, not
// dropped) until Heal is called. Nodes keep accepting client operations
// throughout — the availability half of the CAP story CRDTs exist for.
// Nodes absent from every group form an implicit singleton group each.
func (c *Cluster) Partition(groups ...[]model.NodeID) error {
	side := make([]int, c.N())
	for i := range side {
		side[i] = -1
	}
	for g, members := range groups {
		for _, n := range members {
			if int(n) < 0 || int(n) >= c.N() {
				return fmt.Errorf("sim: no such node %s", n)
			}
			if side[n] != -1 {
				return fmt.Errorf("sim: node %s appears in two groups", n)
			}
			side[n] = g
		}
	}
	next := len(groups)
	for i := range side {
		if side[i] == -1 {
			side[i] = next
			next++
		}
	}
	c.net.SetPartition(side)
	c.stats.Partitions++
	return nil
}

// Heal removes the partition; everything queued becomes deliverable again
// (subject to causal delivery and latency windows).
func (c *Cluster) Heal() {
	if c.net.Partitioned() {
		c.stats.Heals++
	}
	c.net.Heal()
}

// Partitioned reports whether a partition is in effect.
func (c *Cluster) Partitioned() bool { return c.net.Partitioned() }

// Crash takes node t down: until Recover it accepts no invocations and no
// deliveries. Messages addressed to it stay queued in the network, and
// messages it already broadcast keep flowing — the crash is node-local.
func (c *Cluster) Crash(t model.NodeID) error {
	if int(t) < 0 || int(t) >= c.N() {
		return fmt.Errorf("sim: no such node %s", t)
	}
	if c.down[t] {
		return fmt.Errorf("sim: crash %s: %w", t, ErrNodeDown)
	}
	c.down[t] = true
	c.stats.Crashes++
	return nil
}

// Recover brings a crashed node back. With fresh=false the node restarts
// from its durable replica state and simply resumes consuming its queue.
// With fresh=true the replica is replaced: its in-flight queue is discarded
// and it resyncs from the cluster's durable history — the decoded snapshot
// checkpoint plus the retained broadcast log when checkpoints are enabled
// (WithSnapshots), or a full log replay otherwise; see snapshot.go. Either
// way the re-deliveries are recorded as ordinary delivery events, keeping
// the trace well-formed (each effector still reaches the node at most once).
func (c *Cluster) Recover(t model.NodeID, fresh bool) error {
	if int(t) < 0 || int(t) >= c.N() {
		return fmt.Errorf("sim: no such node %s", t)
	}
	if !c.down[t] {
		return fmt.Errorf("sim: recover %s: node is not crashed", t)
	}
	c.down[t] = false
	c.stats.Recoveries++
	if !fresh {
		return nil
	}
	return c.resyncFresh(t)
}

// Down reports whether node t is crashed.
func (c *Cluster) Down(t model.NodeID) bool { return c.down[t] }
