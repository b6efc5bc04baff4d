// Command crdt-sim runs randomized executions of a CRDT algorithm on a
// simulated replicated cluster and reports convergence: the strong eventual
// consistency that Lemma 5 derives from ACC, observed directly.
//
// Usage:
//
//	crdt-sim -algo rga -nodes 3 -steps 200 -seeds 20 [-drop 0.1] [-v]
//
// Chaos mode runs deterministic scripted executions under seeded fault
// plans — message loss (with retransmission), bounded duplication, reorder
// windows, payload corruption (the cluster ships canonically encoded bytes;
// a flipped bit is rejected by the decoder and retransmitted), transient
// partitions and node crash/recovery — and checks that the replicas still
// converge once the faults heal and delivery quiesces. Every run is
// replayable: the same flags always produce the same script, plan, trace
// and verdict, and the first seed is executed twice to prove it.
//
//	crdt-sim -chaos -algo rga -nodes 3 -ops 12 -seed 1 -seeds 10 [-loss 0.2] [-dup 0.3] [-delay 3] [-corrupt 0.3] [-snapshot-every 4] [-v]
//
// With -snapshot-every N the chaos clusters checkpoint the stable frontier
// every N replication events, truncate the broadcast log up to it, and serve
// fresh crash recoveries from the decoded snapshot instead of a full log
// replay.
//
// Socket mode replicates one object between real OS processes: each process
// is one node of a full mesh over unix or TCP sockets, shipping the same
// checksummed frames the simulator uses, decoded by the registry's codecs.
// All processes must be started with the same -algo/-ops/-seed/-addrs; each
// deterministically generates the shared script and plays only its own
// node's share:
//
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock -node 0 -algo rga -ops 20 -seed 7 &
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock -node 1 -algo rga -ops 20 -seed 7
//
// Both print the byte-identical canonical state of object 0 — a single
// object is object 0 of a mesh without a manifest — in a line of the form
// "node I: obj 0 canonical state HEX". Write batching coalesces
// queued broadcasts into one wire write per flush: -batch-frames N holds up
// to N frames back, and -flush-every D bounds how long the first queued
// frame waits. Batching is pure wire plumbing — the canonical states still
// agree byte-for-byte, as the printed transport stats (wire totals, flush
// triggers, connections) show:
//
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock -node 0 -batch-frames 8 -flush-every 5ms ...
//
// A socket mesh also supports late joiners with snapshot catch-up: early
// processes name the nodes that will arrive late (-late-peers) and keep their
// broadcast logs compacted (-snapshot-every N truncates up to the frontier
// every connected peer has acknowledged); a late process passes -catch-up and
// is served the stable checkpoint plus the retained log suffix instead of
// replaying the full history:
//
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock,/tmp/c.sock -node 0 -late-peers 2 -snapshot-every 4 -algo counter -ops 18 -seed 7 &
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock,/tmp/c.sock -node 1 -late-peers 2 -snapshot-every 4 -algo counter -ops 18 -seed 7 &
//	sleep 1
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock,/tmp/c.sock -node 2 -catch-up -algo counter -ops 18 -seed 7
//
// All three print the byte-identical canonical state, and the early nodes'
// snapshot stats show the log stayed bounded.
//
// With -objects N > 1 a socket process replicates N independent objects,
// manifest ids 1..N, multiplexed over the same mesh: one socket pair per
// process pair carries every object's frames (object-scoped, coalescing into
// shared batches), and the handshake exchanges a manifest both sides
// validate. By default every object runs -algo; -mixed cycles the objects
// through different algorithms and additionally prints a product state
// reassembled at read time from the first two objects' independently
// replicated components. Late joiners catch up per object through the one
// shared socket pair:
//
//	crdt-sim -transport tcp -addrs h0:9000,h1:9001 -node 0 -objects 4 -mixed -ops 16 -seed 7 &
//	crdt-sim -transport tcp -addrs h0:9000,h1:9001 -node 1 -objects 4 -mixed -ops 16 -seed 7
//
// Every socket process, whatever -objects says, prints per object a
// quiescence line and a canonical state line (byte-identical across
// processes), then one transport line, and two lines of the endpoint's
// per-object ledger: the frames sent and received, and the send queue's
// frames queued and drained with the cap- and deadline-attributed flushes;
// with -mixed it also prints the product state. Every object's broadcasts
// share one FIFO send queue, so the objects' frames coalesce into the same
// containers in arrival order. The process exits non-zero when a per-object
// counter does not sum to the endpoint total it splits.
//
// With -recv-workers N a socket process applies received frames on N
// parallel per-object shards with bounded queues instead of the interleaved
// pull loop: each object is pinned to one shard, so per-object delivery
// order (and with it causal hold-back, dedup and snapshot catch-up) is
// untouched while distinct objects apply concurrently, and a full shard
// queue stalls the reader instead of buffering without bound. The process
// prints the pipeline's per-shard ledger, which must balance against the
// per-peer wire totals:
//
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock -node 0 -objects 4 -mixed -recv-workers 2 -ops 16 -seed 7 &
//	crdt-sim -transport unix -addrs /tmp/a.sock,/tmp/b.sock -node 1 -objects 4 -mixed -recv-workers 2 -ops 16 -seed 7
//
// Chaos fault injection needs the deterministic in-memory transport and
// refuses to combine with sockets.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/product"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	var (
		algo  = flag.String("algo", "rga", "algorithm: "+strings.Join(algoNames(), ", "))
		nodes = flag.Int("nodes", 3, "cluster size")
		steps = flag.Int("steps", 100, "scheduler steps per run")
		seeds = flag.Int("seeds", 10, "number of randomized runs")
		drop  = flag.Float64("drop", 0, "per-destination message drop probability (disables the final drain)")
		verb  = flag.Bool("v", false, "print the trace of the first run")

		chaos   = flag.Bool("chaos", false, "chaos mode: scripted runs under seeded fault plans")
		seed    = flag.Int64("seed", 1, "chaos mode: base seed (runs use seed..seed+seeds-1); socket mode: script seed")
		ops     = flag.Int("ops", 12, "chaos/socket mode: scripted operations per run")
		loss    = flag.Float64("loss", -1, "chaos mode: override plan link loss probability (-1 = from plan)")
		dup     = flag.Float64("dup", -1, "chaos mode: override plan link duplication probability (-1 = from plan)")
		delay   = flag.Int("delay", -1, "chaos mode: override plan reorder window in ticks (-1 = from plan)")
		corrupt = flag.Float64("corrupt", -1, "chaos mode: override plan payload-corruption probability (-1 = from plan)")
		snap    = flag.Int("snapshot-every", 0, "chaos mode: checkpoint the stable frontier every N replication events and truncate the broadcast log; socket transports: compact the peer's broadcast log every N applied frames (0 = off)")

		trans = flag.String("transport", "mem", "transport: mem (deterministic in-process simulation), unix or tcp (this process is one node of a socket mesh)")
		node  = flag.Int("node", 0, "socket transports: this process's node id (an index into -addrs)")
		addrs = flag.String("addrs", "", "socket transports: comma-separated full-mesh address table, one entry per node (unix: socket paths, tcp: host:port)")

		latePeers = flag.String("late-peers", "", "socket transports: comma-separated node ids that will join late; this peer admits them anytime and serves snapshot catch-up")
		catchUp   = flag.Bool("catch-up", false, "socket transports: this process joins an already-running mesh late and catches up via the snapshot protocol before playing its share")

		batchFrames = flag.Int("batch-frames", 0, "socket transports: coalesce up to N queued broadcasts into one wire write (0 = unbatched)")
		flushEvery  = flag.Duration("flush-every", 0, "socket transports: flush the pending batch at most this long after its first frame queued (0 = no delay timer)")

		objects = flag.Int("objects", 1, "socket transports: replicate N independent objects multiplexed over the one socket mesh (N > 1 declares manifest object ids 1..N; one object is object 0 without a manifest)")
		mixed   = flag.Bool("mixed", false, "socket transports: with -objects, cycle the objects through different algorithms and print a product reassembled from the first two")

		recvWorkers = flag.Int("recv-workers", 0, "socket transports: apply received frames on N parallel per-object shards with bounded queues (0 = the pull loop)")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "crdt-sim: "+format+"\n", args...)
		os.Exit(2)
	}
	alg, ok := registry.ByName(*algo)
	if !ok {
		fail("unknown algorithm %q (have: %s)", *algo, strings.Join(algoNames(), ", "))
	}
	if *nodes < 1 || *steps < 1 {
		fail("-nodes and -steps must be at least 1 (got %d, %d)", *nodes, *steps)
	}
	if *seeds < 1 {
		fail("-seeds must be at least 1 (got %d)", *seeds)
	}
	if *ops < 0 || *snap < 0 {
		fail("-ops and -snapshot-every must be non-negative (got %d, %d)", *ops, *snap)
	}
	if *chaos && *ops < 1 {
		fail("chaos mode needs -ops of at least 1 (got %d)", *ops)
	}
	if *batchFrames < 0 || *flushEvery < 0 {
		fail("-batch-frames and -flush-every must be non-negative")
	}
	policy := transport.BatchPolicy{MaxFrames: *batchFrames, MaxDelay: *flushEvery}
	switch *trans {
	case "mem":
		if *addrs != "" {
			fail("-addrs only applies to socket transports: pass -transport unix or -transport tcp")
		}
		if *batchFrames != 0 || *flushEvery != 0 {
			fail("write batching applies to socket transports: pass -transport unix or -transport tcp")
		}
		if *latePeers != "" || *catchUp {
			fail("-late-peers and -catch-up apply to socket transports: pass -transport unix or -transport tcp")
		}
		if *objects != 1 || *mixed {
			fail("-objects and -mixed apply to socket transports: pass -transport unix or -transport tcp")
		}
		if *recvWorkers != 0 {
			fail("-recv-workers applies to socket transports: pass -transport unix or -transport tcp")
		}
	case "unix", "tcp":
		if *chaos {
			fail("chaos fault injection needs the deterministic in-memory transport: drop -chaos or use -transport mem")
		}
		if *addrs == "" {
			fail("-transport %s needs -addrs with one %s address per node", *trans, *trans)
		}
		if *catchUp && *latePeers != "" {
			fail("-catch-up and -late-peers are mutually exclusive: a late joiner cannot admit further late peers")
		}
		late, err := parseLatePeers(*latePeers)
		if err != nil {
			fail("%v", err)
		}
		if *objects < 1 {
			fail("-objects must be at least 1 (got %d)", *objects)
		}
		if *mixed && *objects < 2 {
			fail("-mixed needs -objects of at least 2 to mix algorithms")
		}
		if *recvWorkers < 0 {
			fail("-recv-workers must be non-negative (got %d)", *recvWorkers)
		}
		os.Exit(runPeer(alg, *trans, *node, strings.Split(*addrs, ","), *ops, *seed, policy, *snap, late, *catchUp, *objects, *mixed, *recvWorkers))
	default:
		fail("unknown transport %q (have: mem, unix, tcp)", *trans)
	}
	if *snap > 0 && !*chaos {
		fail("-snapshot-every requires -chaos (snapshots checkpoint the chaos cluster's broadcast log)")
	}
	if *chaos {
		os.Exit(runChaos(alg, *nodes, *ops, *seed, *seeds, *loss, *dup, *delay, *corrupt, *snap, *verb))
	}
	os.Exit(runRandom(alg, *nodes, *steps, *seeds, *drop, *verb))
}

// parseLatePeers turns the -late-peers flag value into node ids.
func parseLatePeers(s string) ([]model.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	var out []model.NodeID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-late-peers entry %q is not a node id", part)
		}
		out = append(out, model.NodeID(n))
	}
	return out, nil
}

// objStatsLine renders the endpoint's per-object ledger, sent/received
// frames, for printing, object by object in manifest order.
func objStatsLine(specs transport.Manifest, objs map[transport.ObjID]transport.ObjStats) string {
	parts := make([]string, len(specs))
	for i, spec := range specs {
		o := objs[spec.ID]
		parts[i] = fmt.Sprintf("%d:%d/%d", spec.ID, o.SentFrames, o.RecvFrames)
	}
	return strings.Join(parts, " ")
}

// recvStatsLine renders the receive pipeline's per-shard ledger for printing:
// dispatched/applied frames and the queue-depth high-water mark per shard.
func recvStatsLine(rs transport.RecvStats) string {
	parts := make([]string, len(rs.Shards))
	for i, sh := range rs.Shards {
		parts[i] = fmt.Sprintf("%d:%d/%d q<=%d", i, sh.Dispatched, sh.Applied, sh.MaxQueue)
	}
	return strings.Join(parts, " ")
}

// finishReceiver stops a pipelined node's receive side after quiescence: it
// closes the endpoint (nothing further can arrive once every peer is done and
// drained), waits for the shards to finish, and prints the pipeline ledger,
// which must balance against the per-peer wire totals — every received frame
// dispatched to exactly one shard and applied.
func finishReceiver(node int, n *transport.Node, st *transport.Stream) int {
	r := n.Receiver()
	st.Close()
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		fmt.Fprintf(os.Stderr, "crdt-sim: node %d: receive pipeline did not drain after close\n", node)
		return 1
	}
	if err := r.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "crdt-sim: node %d: receive pipeline: %v\n", node, err)
		return 1
	}
	rs := r.Stats()
	if err := rs.Balance(st.Stats().TotalRecv().Frames); err != nil {
		fmt.Fprintf(os.Stderr, "crdt-sim: node %d: %v\n", node, err)
		return 1
	}
	fmt.Printf("node %d: receive pipeline workers=%d shard frames (dispatched/applied): %s\n",
		node, rs.Workers, recvStatsLine(rs))
	return 0
}

// mixedKinds is the algorithm rotation -mixed assigns to objects 1..N.
var mixedKinds = []string{"counter", "g-set", "lww-register", "rga"}

// multiManifest builds the shared manifest for -objects N > 1: object ids
// 1..N (nonzero on purpose — the ids travel in every frame), each declaring
// the algorithm the processes must agree on. A single object needs none: it
// is object 0 of a Node without a manifest.
func multiManifest(alg registry.Algorithm, objects int, mixed bool) transport.Manifest {
	if objects == 1 {
		return nil
	}
	man := make(transport.Manifest, objects)
	for i := 0; i < objects; i++ {
		kind := alg.Name
		if mixed {
			kind = mixedKinds[i%len(mixedKinds)]
		}
		man[i] = transport.ObjectSpec{ID: transport.ObjID(i + 1), Name: fmt.Sprintf("obj%d", i+1), Kind: kind}
	}
	return man
}

// runPeer runs one node of a socket mesh: every object is hosted on one
// transport.Node over one shared endpoint and plays this node's share of its
// own deterministically generated script, so every process must be started
// with the same -algo/-objects/-mixed/-ops/-seed/-addrs. With late joiners
// declared (or as a -catch-up joiner itself) it runs the snapshot protocol
// on every object: early peers serve checkpoint-plus-suffix responses and
// compact their logs every snapEvery applied frames; the joiner installs a
// response for every object before playing its share. With recvWorkers > 0
// the receive side runs as the parallel pipeline (each object pins to one
// shard, so per-object delivery order is unchanged) instead of interleaved
// Step calls. It prints the lines the package doc lists, and fails when the
// per-object frame counters do not sum to the per-peer wire totals.
func runPeer(alg registry.Algorithm, network string, node int, addrList []string, ops int, seed int64, policy transport.BatchPolicy, snapEvery int, late []model.NodeID, catchUp bool, objects int, mixed bool, recvWorkers int) int {
	if len(addrList) < 2 {
		fmt.Fprintf(os.Stderr, "crdt-sim: -addrs lists %d address(es); a mesh needs at least 2\n", len(addrList))
		return 2
	}
	if node < 0 || node >= len(addrList) {
		fmt.Fprintf(os.Stderr, "crdt-sim: -node %d is not an index into the %d-entry -addrs table\n", node, len(addrList))
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "crdt-sim: node %d: "+format+"\n", append([]any{node}, args...)...)
		return 1
	}
	full := make([]string, len(addrList))
	for i, a := range addrList {
		full[i] = network + ":" + strings.TrimSpace(a)
	}
	man := multiManifest(alg, objects, mixed)
	specs := man
	if len(specs) == 0 {
		specs = transport.Manifest{{Kind: alg.Name}}
	}
	algs := make([]registry.Algorithm, len(specs))
	scripts := make([]sim.Script, len(specs))
	for oi, spec := range specs {
		a, ok := registry.ByName(spec.Kind)
		if !ok {
			return fail("object %d: unknown algorithm %q", spec.ID, spec.Kind)
		}
		algs[oi] = a
		scripts[oi] = sim.GenScript(a.New(), a.Abs, sim.GenFunc(a.GenOp), len(addrList), ops, seed+int64(oi), a.NeedsCausal)
	}
	sopts := []transport.StreamOption{
		transport.WithRecvTimeout(30 * time.Second),
		transport.WithBatching(policy),
		transport.WithManifest(man),
	}
	if recvWorkers > 0 {
		sopts = append(sopts, transport.WithReceiver(transport.RecvPolicy{Workers: recvWorkers}))
	}
	switch {
	case catchUp:
		sopts = append(sopts, transport.AsLateJoiner())
	case len(late) > 0:
		sopts = append(sopts, transport.WithLateJoiners(late...))
	}
	st, err := transport.Listen(model.NodeID(node), full, sopts...)
	if err != nil {
		return fail("%v", err)
	}
	defer st.Close()
	n, err := transport.NewNode(st, man)
	if err != nil {
		return fail("%v", err)
	}
	snapshots := catchUp || snapEvery > 0 || len(late) > 0
	for oi, spec := range specs {
		var popts []transport.PeerOption
		if catchUp {
			popts = append(popts, transport.WithCatchUp(algs[oi].DecodeState))
		} else if snapshots {
			popts = append(popts, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: snapEvery}))
		}
		if _, err := n.Register(spec.ID, algs[oi].New(), algs[oi].DecodeEffector, algs[oi].NeedsCausal, popts...); err != nil {
			return fail("%v", err)
		}
	}
	if recvWorkers > 0 {
		if _, err := n.StartReceiver(); err != nil {
			return fail("%v", err)
		}
	}
	if catchUp {
		if err := n.CatchUp(); err != nil {
			return fail("%v", err)
		}
		if err := n.AwaitCatchUp(60 * time.Second); err != nil {
			return fail("catch-up: %v", err)
		}
	}
	// Interleave the objects' shares so their frames coalesce into the same
	// batches: operation k of every object before operation k+1 of any.
	for so := 0; so < ops; so++ {
		for oi, spec := range specs {
			if so >= len(scripts[oi]) {
				continue
			}
			sop := scripts[oi][so]
			if sop.Node != model.NodeID(node) {
				continue
			}
			p, _ := n.Peer(spec.ID)
			if _, err := p.Invoke(sop.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
				return fail("object %d: invoke %v: %v", spec.ID, sop.Op, err)
			}
			if recvWorkers == 0 {
				// Interleave receive progress so peers observe each other
				// mid-script (the pipeline applies continuously on its own).
				if _, err := n.Step(false); err != nil {
					return fail("%v", err)
				}
			}
		}
	}
	for _, obj := range n.Objects() {
		p, _ := n.Peer(obj)
		if err := p.Done(); err != nil {
			return fail("%v", err)
		}
	}
	if err := n.RunToQuiescence(60 * time.Second); err != nil {
		return fail("%v", err)
	}
	if recvWorkers > 0 {
		if code := finishReceiver(node, n, st); code != 0 {
			return code
		}
	}
	states := make([]crdt.State, len(specs))
	for oi, spec := range specs {
		p, _ := n.Peer(spec.ID)
		canon := p.CanonicalState()
		state, err := algs[oi].DecodeState(canon)
		if err != nil {
			return fail("object %d: canonical state: %v", spec.ID, err)
		}
		states[oi] = state
		fmt.Printf("node %d: obj %d (%s) quiescent over %s (issued %d, applied %d remote), φ(state) = %s\n",
			node, spec.ID, spec.Kind, network, p.Issued(), p.Applied(), algs[oi].Abs(state))
		if snapshots {
			ss := p.SnapshotStats()
			fmt.Printf("node %d: obj %d snapshots: checkpoints=%d truncated=%d retained=%d served=%d installed=%t covered=%d suffix=%d fellback=%t\n",
				node, spec.ID, ss.Checkpoints, ss.LogTruncated, ss.LogRetained, ss.Served,
				ss.Installed, ss.InstallCovered, ss.InstallSuffix, ss.FellBack)
		}
		fmt.Printf("node %d: obj %d canonical state %s\n", node, spec.ID, hex.EncodeToString(canon))
	}
	ts := st.Stats()
	sent, recv := ts.TotalSent(), ts.TotalRecv()
	fmt.Printf("node %d: transport sent %d frames in %d batches (%d B), received %d frames in %d batches (%d B) over %d connection(s), flushes frames=%d delay=%d explicit=%d close=%d\n",
		node, sent.Frames, sent.Batches, sent.Bytes, recv.Frames, recv.Batches, recv.Bytes, len(st.ConnectedPeers()),
		ts.Flushes.Frames, ts.Flushes.Delay, ts.Flushes.Explicit, ts.Flushes.Close)
	fmt.Printf("node %d: per-object frames (sent/recv): %s\n", node, objStatsLine(specs, ts.Objects))
	if err := ts.SchedBalance(); err != nil {
		return fail("%v", err)
	}
	if mixed {
		prod := product.State{Parts: states[:2]}
		fmt.Printf("node %d: product(%s×%s) canonical state %s\n",
			node, man[0].Kind, man[1].Kind, hex.EncodeToString(prod.AppendBinary(nil)))
	}
	return 0
}

// runChaos executes chaos mode and returns the process exit code.
func runChaos(alg registry.Algorithm, nodes, ops int, base int64, seeds int, loss, dup float64, delay int, corrupt float64, snapEvery int, verb bool) int {
	fmt.Printf("chaos: algorithm %s (spec %s", alg.Name, alg.Spec.Name())
	if alg.NeedsCausal {
		fmt.Printf(", causal delivery")
	}
	fmt.Printf("), %d nodes, %d ops/script, seeds %d..%d", nodes, ops, base, base+int64(seeds)-1)
	if snapEvery > 0 {
		fmt.Printf(", snapshots every %d events", snapEvery)
	}
	fmt.Println()

	bad := 0
	for s := base; s < base+int64(seeds); s++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, s, alg.NeedsCausal)
		plan := sim.GenFaultPlan(s, nodes, 2*ops)
		if loss >= 0 {
			plan.Link.Loss = loss
		}
		if dup >= 0 {
			plan.Link.Dup = dup
			if plan.Link.MaxDup == 0 {
				plan.Link.MaxDup = 1
			}
		}
		if delay >= 0 {
			plan.Link.DelayMax = delay
		}
		if corrupt >= 0 {
			plan.Link.Corrupt = corrupt
		}
		run := func() (*sim.ChaosReport, error) {
			w := sim.Chaos{
				Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
				Nodes: nodes, Seed: s, Causal: alg.NeedsCausal,
				Decode: alg.DecodeEffector,
			}
			if snapEvery > 0 {
				w.SnapshotEvery = snapEvery
				w.DecodeState = alg.DecodeState
			}
			return w.Run()
		}
		rep, err := run()
		if err != nil {
			fmt.Printf("seed %4d: FAILED: %v (plan %s)\n", s, err, plan)
			bad++
			continue
		}
		if verb && s == base {
			fmt.Printf("plan: %s\n", plan)
			fmt.Println(trace.Render(rep.Trace))
			for _, n := range rep.Cluster.RecoveryNotes() {
				fmt.Printf("  %s\n", n)
			}
		}
		if err := rep.Trace.CheckWellFormed(); err != nil {
			fmt.Printf("seed %4d: malformed trace: %v\n", s, err)
			bad++
			continue
		}
		abs, converged := rep.Cluster.Converged(alg.Abs)
		if !converged {
			notes := make([]fmt.Stringer, 0, len(rep.Cluster.RecoveryNotes()))
			for _, n := range rep.Cluster.RecoveryNotes() {
				notes = append(notes, n)
			}
			fmt.Printf("seed %4d: DIVERGED after faults healed (plan %s)\n%s\n",
				s, plan, core.DivergenceReport(rep.Trace, alg.New().Init(), alg.Abs, notes...))
			bad++
			continue
		}
		if err := core.CheckConvergenceFrom(rep.Trace, alg.New().Init(), alg.Abs); err != nil {
			fmt.Printf("seed %4d: CvT VIOLATED: %v\n", s, err)
			bad++
			continue
		}
		status := ""
		if s == base {
			// Prove the reproduction recipe: the same (script, seed, plan)
			// must replay byte-for-byte.
			rep2, err := run()
			switch {
			case err != nil:
				status = "  [replay FAILED: " + err.Error() + "]"
				bad++
			case rep2.Trace.String() != rep.Trace.String() || rep2.Stats != rep.Stats || rep2.Ticks != rep.Ticks:
				status = "  [replay NOT reproducible]"
				bad++
			default:
				status = "  [replay identical]"
			}
		}
		fmt.Printf("seed %4d: %3d events, %3d ticks, converged to %s  (%s)%s\n",
			s, len(rep.Trace), rep.Ticks, abs, rep.Stats, status)
	}
	fmt.Printf("\n%d/%d chaos runs consistent\n", seeds-bad, seeds)
	if bad > 0 {
		return 1
	}
	return 0
}

// runRandom is the original randomized-workload mode; it returns the
// process exit code.
func runRandom(alg registry.Algorithm, nodes, steps, seeds int, drop float64, verb bool) int {
	fmt.Printf("algorithm %s (spec %s", alg.Name, alg.Spec.Name())
	if alg.NeedsCausal {
		fmt.Printf(", causal delivery")
	}
	fmt.Printf("), %d nodes, %d steps, %d runs\n", nodes, steps, seeds)

	converged, diverged := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := sim.Workload{
			Object:     alg.New(),
			Abs:        alg.Abs,
			Gen:        sim.GenFunc(alg.GenOp),
			Nodes:      nodes,
			Steps:      steps,
			Causal:     alg.NeedsCausal,
			DropProb:   drop,
			FinalDrain: drop == 0,
		}
		c := w.Run(seed)
		tr := c.Trace()
		if err := tr.CheckWellFormed(); err != nil {
			fmt.Fprintf(os.Stderr, "crdt-sim: seed %d: malformed trace: %v\n", seed, err)
			return 1
		}
		if verb && seed == 1 {
			fmt.Println(trace.Render(tr))
			fmt.Print(trace.Summarize(tr))
		}
		if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
			fmt.Printf("seed %4d: CvT VIOLATED: %v\n", seed, err)
			diverged++
			continue
		}
		if drop == 0 {
			abs, ok := c.Converged(alg.Abs)
			if !ok {
				fmt.Printf("seed %4d: replicas diverged after full drain\n", seed)
				diverged++
				continue
			}
			fmt.Printf("seed %4d: %3d events, converged to %s\n", seed, len(tr), abs)
		} else {
			fmt.Printf("seed %4d: %3d events, CvT holds (%d messages dropped or in flight)\n",
				seed, len(tr), c.Pending())
		}
		converged++
	}
	fmt.Printf("\n%d/%d runs consistent\n", converged, seeds)
	if diverged > 0 {
		return 1
	}
	return 0
}

func algoNames() []string {
	var out []string
	for _, a := range registry.All() {
		out = append(out, a.Name)
	}
	return out
}
