package main

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/spec"
)

// meshWorkload drives three replicas of real registry CRDTs over sockets.
// The op count is fixed, so state sizes match between runs.
type meshWorkload struct {
	cfg meshConfig
	// rate is the open-loop issue rate in ops/s; 0 runs a closed loop that
	// keeps at most window operations not yet visible everywhere.
	rate   int
	window int
	// ops is the number of measured operations.
	ops int
	// readShare is the fraction of operations that are queries.
	readShare float64
	// weights is each object's relative share of the operations. The shares
	// keep every latency median inside one class of operation rather than on
	// the boundary between a cheap and an expensive class, where it would
	// jump between them from run to run.
	weights []int
	// preload inserts this many elements into every rga object during set-up.
	preload int
	// sample traces one operation in sample, chosen by mid.
	sample int64
}

// verifyAlgs are the corpus's algorithms, the simulator steps per trace and
// the delivery order: two UCR algorithms decided by the ACC witness and one
// X-wins set by the XACC witness. RGA traces are delivered causally because
// the ACC witness rejects 2–4% of non-causal 3-node RGA traces at every
// length from 40 to 160 steps (a cyclic visibility ∪ ↣), and a verify run
// must decide every trace OK.
var verifyAlgs = []struct {
	name   string
	steps  int
	causal bool
}{{"rga", 160, true}, {"lww-set", 160, false}, {"aw-set", 80, true}}

// Workload order is the order `-workload all` runs them in.
var workloadNames = []string{"edit", "flood", "read-heavy", "verify"}

var meshWorkloads = map[string]meshWorkload{
	// The headline replication-lag number at a steady rate: real apply on
	// growing states, causal hold-back and deps, so every layer does work.
	// 500 ops/s keeps the single P below saturation as the states grow.
	"edit": {
		cfg: meshConfig{network: "tcp", maxFrames: 16,
			kinds: []string{"rga", "rga", "rga", "rga", "aw-set", "aw-set", "counter", "counter"}},
		rate: 500, ops: 500 * runSeconds, weights: []int{1, 1, 1, 1, 2, 2, 2, 2}, sample: 1,
	},
	// Smallest effectors, O(1) apply and no deps: per-frame stream and
	// receive cost dominates; crdt apply and hold-back are bypassed. The
	// closed loop's op count is fixed so later runs do the same work whatever
	// their speed; it measures about a third of runSeconds on the reference
	// machine, because every replica's applied set keeps one entry per
	// operation (Peer.applied, never compacted without the snapshot layer)
	// and a flood as long as runSeconds would grow the process past 1 GB.
	"flood": {
		cfg: meshConfig{network: "unix", maxFrames: 32,
			kinds: []string{"counter", "counter", "counter", "counter", "counter", "counter", "counter", "counter"}},
		window: 1024, ops: 80000 * runSeconds, weights: []int{1, 1, 1, 1, 1, 1, 1, 1}, sample: 16,
	},
	// The same peer and crdt layers used through queries: Prepare-only work
	// with no codec or wire cost, so it measures the per-core cost of a
	// query on a large state. On one P a query and a shard apply never run
	// at once, so it does not measure contention on Peer.mu.
	"read-heavy": {
		cfg: meshConfig{network: "unix", maxFrames: 16,
			kinds: []string{"rga", "rga", "aw-set", "aw-set"}},
		rate: 1000, ops: 1000 * runSeconds, readShare: 0.9, preload: 2000, weights: []int{1, 1, 16, 16}, sample: 1,
	},
}

// verifyTraces is the verify corpus's size, fixed so later runs check the
// same traces whatever their speed: about runSeconds of checking on the
// reference machine.
const verifyTraces = 100 * runSeconds

// opCode is a scripted operation's kind.
type opCode uint8

const (
	opInc    opCode = iota // counter inc(a)
	opAdd                  // aw-set add(e_a)
	opRemove               // aw-set remove(e_a)
	opLookup               // aw-set lookup(e_a)
	opRead                 // read()
	opInsert               // rga addAfter(anchor, element b); anchor a, or the sentinel when a < 0
	opDelete               // rga remove(element b)
)

// scriptOp is one operation the generator issues at one replica, kept
// compact because a flood script holds millions; script.op expands it.
type scriptOp struct {
	node uint8
	obj  uint8
	code opCode
	a, b int32
}

// script is a workload's whole input, generated from the seed before any
// replica starts: the set-up preload, the measured operations, and the
// names of the rga elements they insert.
type script struct {
	preload, ops []scriptOp
	elems        []model.Value
}

// awElems is the aw-set element pool: adds and removes pick from it
// uniformly.
const awElems = 64

var awElem = func() (out [awElems]model.Value) {
	for i := range out {
		out[i] = model.Str(fmt.Sprintf("e%d", i))
	}
	return out
}()

// op expands a scripted operation into the replica's operation.
func (sc *script) op(so scriptOp) model.Op {
	switch so.code {
	case opInc:
		return model.Op{Name: spec.OpInc, Arg: model.Int(int64(so.a))}
	case opAdd:
		return model.Op{Name: spec.OpAdd, Arg: awElem[so.a]}
	case opRemove:
		return model.Op{Name: spec.OpRemove, Arg: awElem[so.a]}
	case opLookup:
		return model.Op{Name: spec.OpLookup, Arg: awElem[so.a]}
	case opInsert:
		anchor := spec.Sentinel
		if so.a >= 0 {
			anchor = sc.elems[so.a]
		}
		return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, sc.elems[so.b])}
	case opDelete:
		return model.Op{Name: spec.OpRemove, Arg: sc.elems[so.b]}
	default:
		return model.Op{Name: spec.OpRead}
	}
}

// scriptGen generates operations that can never fail their precondition.
// RGA anchors and removes only use elements the invoking replica inserted
// itself and has not removed: its own insert is applied locally before it
// returns, and no other replica removes that element, so `assume` holds in
// every interleaving.
//
// Which replica, which object and whether an operation reads are dealt from
// shuffled decks, and each (replica, object) pair alternates its kinds of
// write in a fixed pattern, so every seed gives each object the same number
// of operations of each kind. Seeds vary only the order and the arguments;
// state sizes and deps lengths, which set most of the per-operation cost,
// stay the same from seed to seed.
type scriptGen struct {
	rng         *rand.Rand
	kinds       []string
	sc          *script
	nodes, objs *deck
	reads       []*deck                    // per object: 1 deals a query
	writes      [meshNodes]map[int]int     // writes so far per object
	live        [meshNodes]map[int][]int32 // own live rga element ids per object
}

// deck deals its cards in rounds, reshuffled each round.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, cards []int) *deck {
	return &deck{rng: rng, cards: cards, next: len(cards)}
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func (w meshWorkload) script(seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	sc := &script{ops: make([]scriptOp, 0, w.ops)}
	g := &scriptGen{rng: rng, kinds: w.cfg.kinds, sc: sc}
	var objCards []int
	g.reads = make([]*deck, len(w.cfg.kinds)+1)
	for i, weight := range w.weights {
		for k := 0; k < weight; k++ {
			objCards = append(objCards, i+1)
		}
		readCards := make([]int, 10)
		for k := 0; k < int(w.readShare*10+0.5); k++ {
			readCards[k] = 1
		}
		g.reads[i+1] = newDeck(rng, readCards)
	}
	g.nodes, g.objs = newDeck(rng, []int{0, 1, 2}), newDeck(rng, objCards)
	for i := range g.live {
		g.writes[i], g.live[i] = map[int]int{}, map[int][]int32{}
	}
	for j, kind := range w.cfg.kinds {
		if kind != "rga" {
			continue
		}
		for i := 0; i < w.preload; i++ {
			sc.preload = append(sc.preload, g.rgaInsert(i%meshNodes, j+1))
		}
	}
	for i := 0; i < w.ops; i++ {
		node, obj := g.nodes.deal(), g.objs.deal()
		if g.reads[obj].deal() == 1 {
			sc.ops = append(sc.ops, g.query(node, obj))
		} else {
			sc.ops = append(sc.ops, g.write(node, obj))
		}
	}
	return sc
}

func (g *scriptGen) write(node, obj int) scriptOp {
	n := g.writes[node][obj]
	g.writes[node][obj]++
	so := scriptOp{node: uint8(node), obj: uint8(obj)}
	switch g.kinds[obj-1] {
	case "rga":
		// Three inserts to one remove, so the list grows through the run.
		if n%4 == 3 && len(g.live[node][obj]) > 0 {
			return g.rgaDelete(node, obj)
		}
		return g.rgaInsert(node, obj)
	case "aw-set":
		so.code, so.a = opAdd, int32(g.rng.Intn(awElems))
		if n%2 == 1 {
			so.code = opRemove
		}
	default: // counter
		so.code, so.a = opInc, int32(1+g.rng.Intn(3))
	}
	return so
}

func (g *scriptGen) query(node, obj int) scriptOp {
	so := scriptOp{node: uint8(node), obj: uint8(obj), code: opRead}
	if g.kinds[obj-1] == "aw-set" && g.rng.Intn(2) == 0 {
		so.code, so.a = opLookup, int32(g.rng.Intn(awElems))
	}
	return so
}

// rgaInsert inserts a fresh element after the sentinel or after one of the
// node's own live elements.
func (g *scriptGen) rgaInsert(node, obj int) scriptOp {
	live := g.live[node][obj]
	so := scriptOp{node: uint8(node), obj: uint8(obj), code: opInsert, a: -1, b: int32(len(g.sc.elems))}
	if len(live) > 0 && g.rng.Intn(2) == 0 {
		so.a = live[g.rng.Intn(len(live))]
	}
	g.sc.elems = append(g.sc.elems, model.Str(fmt.Sprintf("n%d.%d", node, so.b)))
	g.live[node][obj] = append(live, so.b)
	return so
}

// rgaDelete removes one of the node's own live elements.
func (g *scriptGen) rgaDelete(node, obj int) scriptOp {
	live := g.live[node][obj]
	i := g.rng.Intn(len(live))
	so := scriptOp{node: uint8(node), obj: uint8(obj), code: opDelete, b: live[i]}
	live[i] = live[len(live)-1]
	g.live[node][obj] = live[:len(live)-1]
	return so
}
