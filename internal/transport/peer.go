package transport

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
)

// Peer is one replica of an op-based CRDT over a Transport: the replica and
// delivery/dedup layers of the execution model, transport-agnostic. It runs
// Prepare locally, applies the effector atomically at the origin, broadcasts
// it as a canonical effector frame, and applies received frames at most once
// each, holding back frames whose causal dependencies have not arrived when
// the algorithm requires causal delivery (Sec 9). The same Peer converges
// over Mem in a deterministic unit test and over a unix or TCP socket
// between OS processes.
//
// Request IDs are Lamport-style: mid = seq·N + self + 1 with seq bumped past
// every received mid's sequence number, so mids are globally unique and the
// mid order is consistent with happens-before — the same invariant the
// simulator's centrally allocated mids provide.
type Peer struct {
	// mu serializes every access to the replica state below. A single-threaded
	// pull loop never contends on it; the receive pipeline needs it because an
	// apply-shard worker handles this object's frames while the owning
	// goroutine concurrently invokes operations and reads progress. The lock
	// order is Peer.mu before the transport's own locks (Invoke broadcasts,
	// serveSnapshot unicasts, both while holding mu); the transport never
	// calls back into Peer, so the order cannot invert.
	mu     sync.Mutex
	t      Transport
	obj    crdt.Object
	dec    crdt.EffectorDecoder
	causal bool
	// objID scopes every frame this replica sends and accepts: the ID
	// Node.Register hosts it under (0 for the lone object of a group without
	// a manifest). Everything below — the Lamport mid space, dedup,
	// hold-back, checkpointing — is per object by construction, because each
	// object gets its own Peer.
	objID ObjID

	// state is owned: applied in place (crdt.ApplyOwned), never handed out.
	state crdt.State
	// cc is the applied set. Its gaps stay empty except on a catch-up joiner
	// with an open gap (DESIGN.md, "Causal frontier deps").
	cc CausalContext
	// held buffers effector frames whose dependencies are not yet applied
	// (causal delivery only).
	held map[model.MsgID]Frame
	seq  uint64

	issued int // effectful broadcasts by this peer
	// done maps peers that announced completion to their effectful counts.
	done     map[model.NodeID]int
	doneSent bool
	remote   int // effector frames applied from other peers

	// Snapshot serving/compaction side (WithSnapshotPolicy). log retains
	// every applied effector frame not yet folded into the checkpoint. The
	// acknowledgements — what each peer is known to have applied, from its
	// own broadcasts plus the frontier deps it puts on the wire — are the
	// input to the compaction frontier, kept as per-origin watermarks
	// (ackFront[q][o]: q applied every origin-o mid up to it).
	snapServe    bool
	pol          SnapshotPolicy
	log          []Frame
	ck           *Checkpoint
	ackFront     map[model.NodeID][]model.MsgID
	served       map[model.NodeID]bool
	sinceCompact int

	// Snapshot catch-up side (WithCatchUp). While syncing — between the
	// request and the first response installing (or the corrupt fallback) —
	// incoming effector frames buffer in held so the installed state can
	// never lose a concurrent broadcast.
	catchUp   bool
	decState  crdt.StateDecoder
	requested bool
	syncing   bool

	snapStats SnapStats
}

// PeerOption configures optional peer layers.
type PeerOption func(*Peer)

// WithSnapshotPolicy enables the snapshot serving/compaction layer: the peer
// retains its applied effector frames, answers each peer's first
// KindSnapshotRequest with its checkpoint plus the retained suffix, and —
// with pol.Every > 0 — compacts every pol.Every applied frames, truncating
// the log up to the frontier every connected peer has acknowledged.
func WithSnapshotPolicy(pol SnapshotPolicy) PeerOption {
	return func(p *Peer) {
		p.snapServe = true
		p.pol = pol
		p.ackFront = map[model.NodeID][]model.MsgID{}
		p.served = map[model.NodeID]bool{}
	}
}

// WithCatchUp marks the peer a late joiner: CatchUp broadcasts a snapshot
// request and the first response installs through dec (the algorithm's
// registered StateDecoder) before the peer enters the normal hold-back loop.
func WithCatchUp(dec crdt.StateDecoder) PeerOption {
	return func(p *Peer) {
		p.catchUp = true
		p.decState = dec
	}
}

// NewPeer creates the replica layer for obj over t, scoped to object 0. dec
// must be the algorithm's registered effector decoder; causal enables the
// causal hold-back the X-wins algorithms require. The peer only sends: frames
// reach it through Handle, which a Node's receive loop calls (Node.Register
// builds and hosts the peer).
func NewPeer(obj crdt.Object, dec crdt.EffectorDecoder, t Transport, causal bool, opts ...PeerOption) *Peer {
	p := &Peer{
		t: t, obj: obj, dec: dec, causal: causal,
		state: obj.Init(),
		cc:    NewCausalContext(t.N()),
		held:  map[model.MsgID]Frame{},
		done:  map[model.NodeID]int{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// CanonicalState returns the replica state's canonical binary encoding —
// the byte-identical form converged replicas agree on.
func (p *Peer) CanonicalState() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.AppendBinary(nil)
}

// Issued returns the number of effectful operations this peer broadcast.
func (p *Peer) Issued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.issued
}

// Applied returns the number of remote effector frames applied.
func (p *Peer) Applied() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remote
}

// nextMID allocates the next Lamport request ID.
func (p *Peer) nextMID() model.MsgID {
	mid := model.MsgID(int(p.seq)*p.t.N() + int(p.t.Self()) + 1)
	p.seq++
	return mid
}

// observe bumps the Lamport sequence past a received mid. Only positive mids
// have a sequence number; Handle rejects others, and a snapshot's covered
// list must not wrap the sequence with them either.
func (p *Peer) observe(mid model.MsgID) {
	if mid <= 0 {
		return
	}
	if s := uint64(int(mid)-1) / uint64(p.t.N()); s >= p.seq {
		p.seq = s + 1
	}
}

// origin returns the replica that allocated mid: (mid-1) mod N, by the
// Lamport layout. Only positive mids have one; a corrupt snapshot may list
// others, which callers skip.
func (p *Peer) origin(mid model.MsgID) int { return int(mid-1) % p.t.N() }

// isPeer reports whether id names another node of the group.
func (p *Peer) isPeer(id model.NodeID) bool {
	return id >= 0 && int(id) < p.t.N() && id != p.t.Self()
}

// raise lifts the per-origin watermark w to mid at mid's origin.
func (p *Peer) raise(w []model.MsgID, mid model.MsgID) {
	if mid > 0 && mid > w[p.origin(mid)] {
		w[p.origin(mid)] = mid
	}
}

// applied reports whether the effector mid has been applied here.
func (p *Peer) applied(mid model.MsgID) bool { return p.cc.Applied(p.origin(mid), mid) }

// pred returns f's own-origin predecessor: its largest dep from its own
// origin below its mid, which every frame that carries deps names. 0 means f
// is contiguous: its origin's first frame, or a deps-less mesh's frame, which
// arrives in issue order and is never relayed.
func (p *Peer) pred(f Frame) model.MsgID {
	var pr model.MsgID
	for _, d := range f.Deps {
		if d > pr && d < f.MID && p.origin(d) == p.origin(f.MID) {
			pr = d
		}
	}
	return pr
}

// Invoke runs op's two-phase execution at this replica: Prepare over the
// local state, atomic local application, and broadcast of the effector frame
// (identity effectors are not broadcast). It returns crdt.ErrAssume
// unchanged when the precondition fails, leaving the replica untouched.
func (p *Peer) Invoke(op model.Op) (model.Value, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.syncing {
		return model.Nil(), fmt.Errorf("transport: catch-up in progress: await the snapshot before invoking")
	}
	mid := p.nextMID()
	ret, eff, err := p.obj.Prepare(op, p.state, p.t.Self(), mid)
	if err != nil {
		return model.Nil(), err
	}
	if crdt.IsIdentity(eff) {
		return ret, nil
	}
	payload := eff.AppendBinary(nil)
	// Sender-side validation, as the simulator performs: an encoding the
	// registered decoder cannot parse is a codec-registration bug — fail
	// deterministically here instead of poisoning every peer.
	if _, derr := p.dec(payload); derr != nil {
		return model.Nil(), fmt.Errorf("transport: effector %s does not decode with the registered codec: %v", eff, derr)
	}
	f := Frame{Kind: KindEffector, Obj: p.objID, MID: mid, From: p.t.Self(), Payload: payload, Deps: p.wireDeps()}
	p.state = crdt.ApplyOwned(eff, p.state)
	p.cc.MarkApplied(int(p.t.Self()), mid, p.pred(f))
	p.issued++
	if p.snapServe {
		p.log = append(p.log, f)
		if err := p.tickCompaction(); err != nil {
			return model.Nil(), err
		}
	}
	return ret, p.t.Broadcast(f)
}

// wireDeps returns the dependency list a frame should carry: the frontier,
// or nothing. A causal object always sends it: every origin's frames chain
// through that origin's previous one, so a receiver that has applied each
// frontier mid has applied the sender's whole causal past. A non-causal
// object sends it only when the mesh runs the snapshot protocol — there the
// deps are acknowledgements that drive the compaction frontier, not delivery
// gates, so serving peers and catch-up joiners always attach them.
func (p *Peer) wireDeps() []model.MsgID {
	if p.causal || p.snapServe || p.catchUp {
		return p.cc.Frontier()
	}
	return nil
}

// Done announces that this peer has finished issuing operations, carrying
// its effectful broadcast count so peers can detect quiescence. The frame
// gets its own Lamport request ID — frame IDs must be globally unique
// whatever the kind, and the count travels in the payload. Done flushes the
// transport: nothing of this peer's history may linger in a pending batch
// once completion is announced.
func (p *Peer) Done() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneSent = true
	if err := p.t.Broadcast(Frame{
		Kind: KindDone, Obj: p.objID, MID: p.nextMID(), From: p.t.Self(),
		Payload: codec.AppendUvarint(nil, uint64(p.issued)),
		Deps:    p.wireDeps(),
	}); err != nil {
		return err
	}
	return p.t.Flush()
}

// Handle processes one received frame: validation of its routing fields,
// dedup by request ID before the payload is even parsed, causal hold-back
// when enabled, decode through the registered decoder (corruption never
// reaches Apply — the wire envelope already rejected bit flips), then
// application and a retry of any held frames the new delivery unblocked.
func (p *Peer) Handle(f Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case f.Obj != p.objID:
		return fmt.Errorf("%w: object %d frame delivered to the object %d replica", codec.ErrCorrupt, f.Obj, p.objID)
	case f.MID <= 0:
		return fmt.Errorf("%w: %s frame from %s carries mid %d, not a positive request ID", codec.ErrCorrupt, KindName(f.Kind), f.From, f.MID)
	case !p.isPeer(f.From):
		return fmt.Errorf("%w: %s frame %s names sender %s, not a peer of %s in the %d-node group", codec.ErrCorrupt, KindName(f.Kind), f.MID, f.From, p.t.Self(), p.t.N())
	}
	switch f.Kind {
	case KindDone:
		p.observe(f.MID)
		p.ack(f)
		d := codec.NewDecoder(f.Payload)
		n := d.Uvarint()
		if err := d.Done(); err != nil {
			return fmt.Errorf("transport: done frame from %s: %w", f.From, err)
		}
		p.done[f.From] = int(n)
		if p.snapServe && p.pol.Every > 0 {
			// A done frame carries the peer's final acknowledgement set: a
			// last compaction pass keeps the retained log from fossilizing
			// at whatever the tick counter left.
			return p.compact()
		}
		return nil
	case KindEffector:
		return p.handleEffector(f)
	case KindSnapshot:
		p.observe(f.MID)
		return p.handleSnapshot(f)
	case KindSnapshotRequest:
		p.observe(f.MID)
		p.ack(f)
		return p.serveSnapshot(f.From)
	default:
		return fmt.Errorf("transport: %s frame from %s", KindName(f.Kind), f.From)
	}
}

// handleEffector runs the KindEffector path: dedup, buffering while a
// catch-up is syncing (the install replaces the state, so concurrent frames
// must wait), causal hold-back, then application.
func (p *Peer) handleEffector(f Frame) error {
	p.observe(f.MID)
	p.ack(f)
	if p.applied(f.MID) {
		return nil // at-most-once: duplicate suppressed
	}
	if p.syncing || (p.causal && !p.cc.DepsMet(f.Deps, p.origin)) {
		// The frame is stored past this handler call, so it must own its
		// payload bytes — under a Receiver they alias a pooled receive
		// buffer that is reclaimed once the handler returns.
		p.held[f.MID] = f.Retain()
		return nil
	}
	if err := p.apply(f); err != nil {
		return err
	}
	return p.retryHeld()
}

// ack records what frame f proves its sender has applied: its own broadcast
// plus every dependency it attached — monotone facts about the sender's
// applied set, the input to the compaction frontier. Each origin's frames
// reach a receiver in issue order, so the highest acknowledged mid per origin
// stands for all of that origin's frames below it, whether the deps are a
// frontier or a full applied set (DESIGN.md, "Causal frontier deps", covers
// a catch-up joiner's gap).
func (p *Peer) ack(f Frame) {
	if !p.snapServe {
		return
	}
	w := p.ackFront[f.From]
	if w == nil {
		w = make([]model.MsgID, p.t.N())
		p.ackFront[f.From] = w
	}
	if f.Kind == KindEffector {
		p.raise(w, f.MID)
	}
	for _, d := range f.Deps {
		p.raise(w, d)
	}
}

// acked reports whether peer q is known to have applied the log frame mid.
func (p *Peer) acked(q model.NodeID, mid model.MsgID) bool {
	w := p.ackFront[q]
	return w != nil && mid > 0 && mid <= w[p.origin(mid)]
}

// apply decodes and applies one effector frame, retaining it in the
// compaction log when the snapshot layer is on.
func (p *Peer) apply(f Frame) error {
	eff, err := p.dec(f.Payload)
	if err != nil {
		return fmt.Errorf("transport: frame %s from %s: %w", f.MID, f.From, err)
	}
	p.state = crdt.ApplyOwned(eff, p.state)
	p.cc.MarkApplied(p.origin(f.MID), f.MID, p.pred(f))
	p.remote++
	if p.snapServe {
		// The compaction log outlives the handler call: detach the payload
		// from any pooled receive buffer it may alias.
		p.log = append(p.log, f.Retain())
		return p.tickCompaction()
	}
	return nil
}

// retryHeld applies held frames whose dependencies became satisfied,
// repeating until a fixpoint (one delivery can unblock a chain). Frames are
// retried in mid order, which is consistent with happens-before. While a
// catch-up is syncing everything stays buffered; non-causal frames release
// unconditionally once the sync resolves (their deps are acknowledgement
// metadata, not delivery gates).
func (p *Peer) retryHeld() error {
	if p.syncing {
		return nil
	}
	for {
		progress := false
		mids := make([]model.MsgID, 0, len(p.held))
		for mid := range p.held {
			mids = append(mids, mid)
		}
		sort.Slice(mids, func(i, j int) bool { return mids[i] < mids[j] })
		for _, mid := range mids {
			f := p.held[mid]
			if p.applied(mid) {
				// A frame held during a catch-up sync can arrive again inside
				// the installed snapshot (covered or suffix): at-most-once
				// holds here too.
				delete(p.held, mid)
				continue
			}
			if p.causal && !p.cc.DepsMet(f.Deps, p.origin) {
				continue
			}
			delete(p.held, mid)
			if err := p.apply(f); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// CatchUp broadcasts a KindSnapshotRequest: every serving peer answers with
// its checkpoint state plus retained suffix, and the first response installs
// (Node.AwaitCatchUp waits until then). Until the install — or the fallback to
// full replay if the response is corrupt — incoming effector frames buffer
// and Invoke refuses. Call it right after Listen, before any operation.
func (p *Peer) CatchUp() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.decState == nil {
		return fmt.Errorf("transport: peer was not built with WithCatchUp")
	}
	if p.requested {
		return nil
	}
	p.requested = true
	p.syncing = true
	if err := p.t.Broadcast(Frame{
		Kind: KindSnapshotRequest, Obj: p.objID, MID: p.nextMID(), From: p.t.Self(), Deps: p.wireDeps(),
	}); err != nil {
		return err
	}
	return p.t.Flush()
}

// awaitingSnapshot reports whether a requested catch-up is still unresolved —
// the per-object condition Node.AwaitCatchUp waits on.
func (p *Peer) awaitingSnapshot() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requested && p.syncing
}

// serveSnapshot answers one snapshot request: the checkpoint's covered set
// and state (or the initial state before any checkpoint — then the whole
// log rides as suffix, a full replay), the retained log, and the completion
// announcements the requester can no longer receive directly. Each peer is
// served once; duplicates and requests to peers without the snapshot layer
// are counted and ignored.
func (p *Peer) serveSnapshot(to model.NodeID) error {
	if !p.snapServe {
		p.snapStats.RequestsIgnored++
		return nil
	}
	if p.served[to] {
		p.snapStats.DupRequests++
		return nil
	}
	p.served[to] = true
	snap := Snapshot{Suffix: p.log}
	if p.ck != nil {
		snap.Covered = p.ck.CoveredSorted()
		snap.State = p.ck.State.AppendBinary(nil)
	} else {
		snap.State = p.obj.Init().AppendBinary(nil)
	}
	for node, n := range p.done {
		snap.Done = append(snap.Done, DoneCount{Node: node, Count: n})
	}
	if p.doneSent {
		snap.Done = append(snap.Done, DoneCount{Node: p.t.Self(), Count: p.issued})
	}
	p.snapStats.Served++
	if err := p.t.Send(to, Frame{
		Kind: KindSnapshot, Obj: p.objID, MID: p.nextMID(), From: p.t.Self(), Payload: EncodeSnapshot(snap),
	}); err != nil {
		// Best-effort: the requester may have resolved through another peer's
		// response and hung up before this one went out. A lost response never
		// strands the joiner — it retries or falls back to full replay — so a
		// refused write must not take this peer down.
		p.snapStats.ServeFailed++
	}
	return nil
}

// handleSnapshot processes one snapshot response. The first response while
// syncing installs: the decoded checkpoint state replaces the (fresh)
// replica state, the covered frames are marked applied without ever being
// replayed, and the suffix runs through the ordinary dedup path. A corrupt
// response falls back to full replay — the buffered frames release and the
// mesh converges the pre-snapshot way. Later responses only contribute
// suffix frames the peer still misses: by the compaction frontier rule their
// covered sets are always already applied here (a frame compacted anywhere
// was acknowledged — hence applied — by every peer connected there, or is
// in the response that installed).
func (p *Peer) handleSnapshot(f Frame) error {
	if !p.requested {
		return fmt.Errorf("transport: unsolicited snapshot frame from %s", f.From)
	}
	snap, err := DecodeSnapshot(f.Payload)
	var st, ckState crdt.State
	if err == nil && p.syncing {
		st, err = p.decState(snap.State)
		if err == nil && p.snapServe {
			// The checkpoint gets its own decode: the replica now applies
			// in place, and a served snapshot must keep the installed state.
			ckState, err = p.decState(snap.State)
		}
	}
	if err != nil {
		p.snapStats.CorruptResponses++
		if !p.syncing {
			return fmt.Errorf("transport: snapshot frame from %s: %w", f.From, err)
		}
		p.syncing = false
		p.snapStats.FellBack = true
		if rerr := p.retryHeld(); rerr != nil {
			return rerr
		}
		return fmt.Errorf("transport: snapshot from %s rejected, falling back to full log replay: %w", f.From, err)
	}
	// A covered mid that is not positive names no frame (see origin).
	snap.Covered = slices.DeleteFunc(snap.Covered, func(mid model.MsgID) bool { return mid <= 0 })
	if p.syncing {
		p.state = st
		for _, mid := range snap.Covered {
			p.observe(mid)
			if !p.applied(mid) {
				// A served Covered list is a per-origin prefix (compact), so
				// the install raises the base over it.
				p.cc.MarkApplied(p.origin(mid), mid, 0)
				p.remote++
				p.snapStats.InstallCovered++
			}
		}
		if p.snapServe {
			// Seed this peer's own checkpoint from the installed snapshot, so
			// a peer that both catches up and serves can answer a still later
			// joiner without the history the server compacted away.
			p.ck = NewCheckpoint(ckState)
			for _, mid := range snap.Covered {
				p.ck.Covered[mid] = true
			}
		}
		p.syncing = false
		p.snapStats.Installed = true
		p.snapStats.InstallSuffix += len(snap.Suffix)
		p.snapStats.SnapshotBytes += len(f.Payload)
	} else {
		p.snapStats.ResponsesIgnored++
		for _, mid := range snap.Covered {
			if !p.applied(mid) {
				return fmt.Errorf("transport: snapshot from %s covers unapplied frame %s after install — compaction frontier violated", f.From, mid)
			}
		}
	}
	for _, d := range snap.Done {
		if _, known := p.done[d.Node]; !known && p.isPeer(d.Node) {
			p.done[d.Node] = d.Count
		}
	}
	for i, sf := range snap.Suffix {
		// Handle's routing checks, except that the sender may be this peer:
		// a later response can carry its own frames.
		switch {
		case sf.Obj != p.objID:
			return fmt.Errorf("%w: snapshot suffix frame %d is scoped to object %d, not %d", codec.ErrCorrupt, i, sf.Obj, p.objID)
		case sf.MID <= 0:
			return fmt.Errorf("%w: snapshot suffix frame %d carries mid %d, not a positive request ID", codec.ErrCorrupt, i, sf.MID)
		case sf.From < 0 || int(sf.From) >= p.t.N():
			return fmt.Errorf("%w: snapshot suffix frame %s names sender %s outside the %d-node group", codec.ErrCorrupt, sf.MID, sf.From, p.t.N())
		}
		if err := p.handleEffector(sf); err != nil {
			return err
		}
	}
	return p.retryHeld()
}

// tickCompaction counts one applied effector frame against the policy
// interval and compacts when it elapses.
func (p *Peer) tickCompaction() error {
	if p.pol.Every <= 0 {
		return nil
	}
	p.sinceCompact++
	if p.sinceCompact < p.pol.Every {
		return nil
	}
	p.sinceCompact = 0
	return p.compact()
}

// compact advances the checkpoint to the compaction frontier — the retained
// frames every connected peer has acknowledged applying — and truncates the
// log up to it. Truncating only acknowledged frames preserves the safety
// invariant truncated ⊆ applied at every connected peer: anything a future
// request needs is either covered by the served checkpoint or still in the
// retained suffix. A peer that has not acknowledged anything (a joiner whose
// first frames have not arrived) blocks the frontier entirely, which is the
// safe direction. Only frames within this peer's own base fold, so a served
// Covered list stays a per-origin prefix a joiner may install as watermarks.
func (p *Peer) compact() error {
	if len(p.log) == 0 {
		return nil
	}
	peers := p.t.ConnectedPeers()
	stable := map[model.MsgID]crdt.Effector{}
	for _, f := range p.log {
		fold := f.MID > 0 && f.MID <= p.cc.base[p.origin(f.MID)]
		for _, q := range peers {
			if fold && q != p.t.Self() {
				fold = p.acked(q, f.MID)
			}
		}
		if fold {
			eff, err := p.dec(f.Payload)
			if err != nil {
				return fmt.Errorf("transport: retained frame %s: %w", f.MID, err)
			}
			stable[f.MID] = eff
		}
	}
	if len(stable) == 0 {
		return nil
	}
	if p.ck == nil {
		p.ck = NewCheckpoint(p.obj.Init())
	}
	p.ck.Advance(stable)
	retained := p.log[:0]
	truncated := 0
	for _, f := range p.log {
		if p.ck.Covered[f.MID] {
			truncated++
			continue
		}
		retained = append(retained, f)
	}
	p.log = retained
	p.snapStats.Checkpoints++
	p.snapStats.LogTruncated += truncated
	return nil
}

// SnapshotStats returns a snapshot of the peer's state-transfer counters.
func (p *Peer) SnapshotStats() SnapStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snapStats
	s.LogRetained = len(p.log)
	return s
}

// DonePeers returns the number of peers whose completion announcement this
// peer knows (received directly or forwarded inside a snapshot response).
func (p *Peer) DonePeers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.done)
}

// progress renders the quiescence-relevant counters and any open gap.
func (p *Peer) progress() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("(done %d/%d peers, applied %d, held %d%s)", len(p.done), p.t.N()-1, p.remote, len(p.held), p.cc.openGaps())
}

// openGaps names each origin's open gap: its base and the frames above it.
func (p *Peer) openGaps() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cc.openGaps()
}

// Quiesced reports whether the object is stable from this peer's view:
// every peer announced completion and every announced effectful broadcast
// has been applied, with nothing held back.
func (p *Peer) Quiesced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.done) != p.t.N()-1 {
		return false
	}
	want := 0
	for _, n := range p.done {
		want += n
	}
	return p.remote == want && len(p.held) == 0
}
