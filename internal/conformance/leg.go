package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Battery items 8–10 are built from legs. A leg is one run of the replica
// layer over a three-node mesh, described as data — an object table,
// per-node endpoint options and a few knobs — and run by runMem on the
// deterministic shared-memory mesh or by runUnix on live unix sockets. Both
// build one transport.Node per node (a single-object leg registers object 0
// with no manifest), record every object's outcome on every node at
// quiescence, and hold the run to the invariants every leg owes
// (leg.check). Each item keeps only the assertions that are its own.

// legNodes is the mesh size. On legs with a late joiner, the joiner is the
// last node.
const legNodes = 3

// legObject is one row of a leg's object table.
type legObject struct {
	spec   transport.ObjectSpec
	alg    registry.Algorithm
	script sim.Script
}

// leg describes one run. Only the fields runMem or runUnix reads matter.
type leg struct {
	// man is the handshake manifest, nil for the lone object 0 of a
	// single-object mesh.
	man  transport.Manifest
	objs []legObject
	// opts are each node's endpoint options.
	opts [legNodes][]transport.StreamOption
	// seed drives runMem's receive steps between invocations.
	seed int64
	// joiner makes runUnix's last node a late joiner that catches up on every
	// object by snapshot, served by early nodes compacting every `every`
	// applied frames (0 never compacts: the whole log ships as suffix).
	joiner bool
	every  int
	// workers > 0 makes runUnix apply received frames on that many
	// receive-pipeline shards instead of pulling them through Node.Step.
	workers int
}

// newLeg builds a leg's object table from man, or the lone object 0 when man
// is empty. The first object replicates the bundle under test itself; the
// others are the registry bundles their manifest kinds name. Object i's
// script is generated from seed+i with ops[i] operations (the last entry of
// ops covers the remaining objects).
func newLeg(alg registry.Algorithm, man transport.Manifest, seed int64, ops ...int) (leg, error) {
	specs := man
	if len(specs) == 0 {
		specs = transport.Manifest{{Kind: alg.Name}}
	}
	l := leg{man: man}
	for i, spec := range specs {
		a := alg
		if i > 0 {
			var ok bool
			if a, ok = registry.ByName(spec.Kind); !ok {
				return l, fmt.Errorf("object %d: no algorithm %q in the registry", spec.ID, spec.Kind)
			}
		}
		script := sim.GenScript(a.New(), a.Abs, sim.GenFunc(a.GenOp), legNodes, ops[min(i, len(ops)-1)], seed+int64(i), a.NeedsCausal)
		l.objs = append(l.objs, legObject{spec: spec, alg: a, script: script})
	}
	return l, nil
}

// nodeRun is what one node of a leg left at quiescence: per object (in
// object-table order) the canonical state, snapshot counters and effectful
// broadcasts issued, plus the endpoint's stats and connected-peer count.
type nodeRun struct {
	states [][]byte
	snaps  []transport.SnapStats
	issued []int
	stats  transport.Stats
	conns  int
}

// legRun is a leg's outcome, indexed by node.
type legRun [legNodes]nodeRun

// record captures node id's outcome once it has quiesced.
func (r *legRun) record(id model.NodeID, l *leg, n *transport.Node) {
	nr := &r[id]
	for _, o := range l.objs {
		p, _ := n.Peer(o.spec.ID)
		nr.states = append(nr.states, p.CanonicalState())
		nr.snaps = append(nr.snaps, p.SnapshotStats())
		nr.issued = append(nr.issued, p.Issued())
	}
	nr.stats = n.Transport().Stats()
	nr.conns = len(n.Transport().ConnectedPeers())
}

// check asserts what every leg owes on every node, whichever runner ran it:
// each object's canonical state byte-identical to node 0's, the per-object
// frame counters summing exactly to the per-peer wire totals (one helper
// updates both views of the same frame), and a balanced send-queue ledger.
func (l *leg) check(r *legRun) error {
	for oi, o := range l.objs {
		for id := 1; id < legNodes; id++ {
			if !bytes.Equal(r[id].states[oi], r[0].states[oi]) {
				return fmt.Errorf("object %d (%s): node %d's canonical state differs from node 0's", o.spec.ID, o.spec.Kind, id)
			}
		}
	}
	for id, nr := range r {
		st := nr.stats
		var sent, recv int
		for _, io := range st.Objects {
			sent += io.SentFrames
			recv += io.RecvFrames
		}
		if sent != st.TotalSent().Frames || recv != st.TotalRecv().Frames {
			return fmt.Errorf("node %d: per-object frame counters (sent %d, recv %d) do not sum to the per-peer totals (sent %d, recv %d)",
				id, sent, recv, st.TotalSent().Frames, st.TotalRecv().Frames)
		}
		if err := st.SchedBalance(); err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	return nil
}

// diff compares two runs of the leg's scripts, naming the first node and
// object whose canonical states differ.
func (l *leg) diff(a, b *legRun) error {
	for id := range a {
		for oi, o := range l.objs {
			if !bytes.Equal(a[id].states[oi], b[id].states[oi]) {
				return fmt.Errorf("node %d object %d (%s)", id, o.spec.ID, o.spec.Kind)
			}
		}
	}
	return nil
}

// node builds node id's demux over t and registers every object of the leg.
// On a joiner leg, the late node's peers catch up by snapshot and the early
// nodes' peers serve snapshots, compacting every l.every applied frames.
func (l *leg) node(id model.NodeID, t transport.Transport) (*transport.Node, error) {
	n, err := transport.NewNode(t, l.man)
	if err != nil {
		return nil, err
	}
	for _, o := range l.objs {
		var opts []transport.PeerOption
		switch {
		case !l.joiner:
		case id == legNodes-1:
			opts = append(opts, transport.WithCatchUp(o.alg.DecodeState))
		default:
			opts = append(opts, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: l.every}))
		}
		if _, err := n.Register(o.spec.ID, o.alg.New(), o.alg.DecodeEffector, o.alg.NeedsCausal, opts...); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// invokeOp runs one scripted operation of o on n. An operation whose assume
// precondition fails there is skipped, as the simulator skips it.
func invokeOp(n *transport.Node, o legObject, so sim.ScriptOp) error {
	p, _ := n.Peer(o.spec.ID)
	if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
		return fmt.Errorf("object %d: invoke %v at %s: %w", o.spec.ID, so.Op, so.Node, err)
	}
	return nil
}

// done announces completion on every object of n.
func done(n *transport.Node) error {
	for _, id := range n.Objects() {
		p, _ := n.Peer(id)
		if err := p.Done(); err != nil {
			return err
		}
	}
	return nil
}

// runMem runs l on the deterministic shared-memory mesh, twice. Beyond
// check, a Mem leg owes a lossless flush — every queued frame reached every
// peer — and replay determinism: the rerun reproduces every canonical state
// and every stats counter, however the endpoint options reorder frames.
func runMem(l leg) (legRun, error) {
	r, err := l.memOnce()
	if err != nil {
		return r, err
	}
	if err := l.check(&r); err != nil {
		return r, err
	}
	for id, nr := range r {
		if got, want := nr.stats.TotalSent().Frames, nr.stats.FramesQueued*(legNodes-1); got != want {
			return r, fmt.Errorf("node %d flushed %d per-peer frames for %d queued — a pending batch was lost", id, got, want)
		}
	}
	again, err := l.memOnce()
	if err != nil {
		return r, fmt.Errorf("rerun: %w", err)
	}
	if err := l.diff(&again, &r); err != nil {
		return r, fmt.Errorf("not deterministic: canonical state differs on rerun: %w", err)
	}
	for id := range r {
		if !reflect.DeepEqual(again[id].stats, r[id].stats) {
			return r, fmt.Errorf("not deterministic: node %d's transport stats differ on rerun", id)
		}
	}
	return r, nil
}

// memOnce is one Mem run. Operation k of every object runs before operation
// k+1 of any, and after each invocation random nodes make receive progress,
// drawn from a source seeded with l.seed.
func (l *leg) memOnce() (legRun, error) {
	var r legRun
	m := transport.NewMem(legNodes)
	ns := make([]*transport.Node, legNodes)
	for i := range ns {
		n, err := l.node(model.NodeID(i), m.Endpoint(model.NodeID(i), l.opts[i]...))
		if err != nil {
			return r, err
		}
		ns[i] = n
	}
	steps := 0
	for _, o := range l.objs {
		steps = max(steps, len(o.script))
	}
	rng := rand.New(rand.NewSource(l.seed))
	for k := range steps {
		for _, o := range l.objs {
			if k >= len(o.script) {
				continue
			}
			so := o.script[k]
			if err := invokeOp(ns[so.Node], o, so); err != nil {
				return r, err
			}
			for s := rng.Intn(3); s > 0; s-- {
				if _, err := ns[rng.Intn(legNodes)].Step(false); err != nil {
					return r, err
				}
			}
		}
	}
	for _, n := range ns {
		if err := done(n); err != nil {
			return r, err
		}
	}
	for i, n := range ns {
		if err := n.RunToQuiescence(5 * time.Second); err != nil {
			return r, fmt.Errorf("node %d: %w", i, err)
		}
		r.record(model.NodeID(i), l, n)
	}
	return r, nil
}

// runUnix runs l on a live unix-socket mesh, one goroutine per node. Every
// node invokes its whole share of every script before making any receive
// progress, so each effector depends only on its node's own prior
// operations: every run of the same scripts generates the identical effector
// set, and runs that differ in policy, pipeline or catch-up path must
// converge to byte-identical states — which is what makes cross-leg
// comparison sound.
//
// With a joiner, the last node is admitted only once both early nodes hold
// each other's Done on every object (each object's final pre-join
// compaction has run), and it catches up on every object over the one
// socket pair per process pair before invoking its own share.
//
// Beyond check, a unix leg owes exactly one connection per process pair
// (objects multiply the traffic, not the sockets), a balanced receive
// ledger on pipelined nodes, and with a joiner a snapshot install (no
// fallback) on every object. Compaction assertions are gated on the early
// nodes compacting and having both issued an effectful frame for the
// object: connection FIFO puts a node's effectors before its Done, so the
// Done-triggered compaction at the other early node then always finds them
// acknowledged and truncates — and both served checkpoints are non-empty,
// so the joiner installs covered frames whichever node answers first.
func runUnix(l leg) (legRun, error) {
	var r legRun
	dir, err := os.MkdirTemp("", "crdt-leg-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	addrs := make([]string, legNodes)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
	}
	const joiner = model.NodeID(legNodes - 1)
	// Each early node reports in once before the join — nil once it holds
	// the other's Done everywhere, or its failure, which aborts the join
	// instead of deadlocking it.
	ready := make(chan error, legNodes-1)
	run := func(id model.NodeID, admit func(error)) error {
		late := l.joiner && id == joiner
		sopts := append([]transport.StreamOption{transport.WithRecvTimeout(5 * time.Second)}, l.opts[id]...)
		if l.man != nil {
			sopts = append(sopts, transport.WithManifest(l.man))
		}
		if l.workers > 0 {
			sopts = append(sopts, transport.WithReceiver(transport.RecvPolicy{Workers: l.workers}))
		}
		switch {
		case late:
			for range legNodes - 1 {
				if err := <-ready; err != nil {
					return fmt.Errorf("early peer failed before the join: %w", err)
				}
			}
			sopts = append(sopts, transport.AsLateJoiner())
		case l.joiner:
			sopts = append(sopts, transport.WithLateJoiners(joiner))
		}
		st, err := transport.Listen(id, addrs, sopts...)
		if err != nil {
			return err
		}
		defer st.Close()
		n, err := l.node(id, st)
		if err != nil {
			return err
		}
		startReceiver := func() error {
			if l.workers == 0 {
				return nil
			}
			_, err := n.StartReceiver()
			return err
		}
		if late {
			if err := startReceiver(); err != nil {
				return err
			}
			if err := n.CatchUp(); err != nil {
				return err
			}
			if err := n.AwaitCatchUp(10 * time.Second); err != nil {
				return err
			}
		}
		for _, o := range l.objs {
			for _, so := range o.script {
				if so.Node != id {
					continue
				}
				if err := invokeOp(n, o, so); err != nil {
					return err
				}
			}
		}
		if err := done(n); err != nil {
			return err
		}
		// An early node starts its receiver only once it has run its script
		// and announced Done, as the pull loop steps only after both. An
		// effector's Prepare reads the local state (cseq positions, assume
		// preconditions), and Done takes the next Lamport mid, which the
		// snapshot responses and so the joiner's mids build on: a remote
		// frame applied earlier would change what the node issues, and the
		// legs could not match byte for byte.
		if !late {
			if err := startReceiver(); err != nil {
				return err
			}
		}
		if l.joiner && !late {
			// Hold the join until every object has the other early node's
			// Done: each object's final pre-join compaction has run then.
			if err := n.Await(10*time.Second, func() bool {
				for _, obj := range n.Objects() {
					if p, _ := n.Peer(obj); p.DonePeers() < 1 {
						return false
					}
				}
				return true
			}); err != nil {
				return err
			}
			admit(nil)
		}
		if err := n.RunToQuiescence(10 * time.Second); err != nil {
			return err
		}
		// A pipelined node closes its endpoint (the deferred Close becomes a
		// no-op) and waits for the pump to drain the frame queue and stop,
		// and only then audits the ledger: every frame the wire counted
		// received must have been dispatched to exactly one shard and
		// applied. Sampling before the pipeline stops would race in-flight
		// frames.
		if rcv := n.Receiver(); rcv != nil {
			st.Close()
			select {
			case <-rcv.Done():
			case <-time.After(10 * time.Second):
				return errors.New("receive pipeline did not stop after Close")
			}
			if err := rcv.Err(); err != nil {
				return fmt.Errorf("receive pipeline: %w", err)
			}
			if err := rcv.Stats().Balance(st.Stats().TotalRecv().Frames); err != nil {
				return err
			}
		}
		r.record(id, &l, n)
		return nil
	}
	errs := make([]error, legNodes)
	var wg sync.WaitGroup
	for i := range legNodes {
		id := model.NodeID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			admit := func(err error) { once.Do(func() { ready <- err }) }
			if errs[id] = run(id, admit); errs[id] != nil && l.joiner && id != joiner {
				admit(errs[id])
			}
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return r, fmt.Errorf("peer %d: %w", id, err)
		}
	}
	if err := l.check(&r); err != nil {
		return r, err
	}
	for id, nr := range r {
		if nr.conns != legNodes-1 {
			return r, fmt.Errorf("node %d holds %d connections for %d peers — objects must share one socket pair per process pair",
				id, nr.conns, legNodes-1)
		}
	}
	if !l.joiner {
		return r, nil
	}
	for oi, o := range l.objs {
		js := r[joiner].snaps[oi]
		if !js.Installed || js.FellBack {
			return r, fmt.Errorf("object %d (%s): joiner never installed a snapshot response: %+v", o.spec.ID, o.spec.Kind, js)
		}
		if l.every == 0 || r[0].issued[oi] == 0 || r[1].issued[oi] == 0 {
			continue
		}
		if js.InstallCovered == 0 {
			return r, fmt.Errorf("object %d (%s): compacting leg installed no covered frames: %+v", o.spec.ID, o.spec.Kind, js)
		}
		for id := range joiner {
			if es := r[id].snaps[oi]; es.Checkpoints == 0 || es.LogTruncated == 0 {
				return r, fmt.Errorf("object %d (%s): early peer %d never compacted its log: %+v", o.spec.ID, o.spec.Kind, id, es)
			}
		}
	}
	return r, nil
}
