package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/model"
)

// Stream is the real Transport: the same checksummed codec frames the
// simulator ships in-process, carried over unix or TCP sockets between OS
// processes. The replication group is a full mesh described by an address
// table (one listen address per node); endpoint i listens on Addrs[i], dials
// every lower-numbered peer and accepts the higher-numbered ones, so any
// start order connects exactly once per pair.
//
// Wire format per flush: uvarint length, then a batch container (uvarint
// count, then count nested checksummed codec frame envelopes — each the
// bytes EncodeWire produces and the in-memory chaos runs corrupt, so a
// flipped bit on a real link is rejected by the same decoder path). Without
// batching every frame ships as a one-frame container; with a BatchPolicy
// queued broadcasts coalesce so one syscall and one length prefix amortize
// across the whole batch.
type Stream struct {
	endpointConfig

	self  model.NodeID
	addrs []streamAddr
	ln    net.Listener

	mu    sync.Mutex // guards conns' write side, the send queue and closing
	conns []net.Conn // indexed by peer node ID; nil at self

	// Pending broadcasts: one FIFO send queue that flushLocked drains into
	// batch containers. flushTimer, armed by the pending batch's first frame
	// when BatchPolicy.MaxDelay is set, flushes the batch once the delay
	// runs out. Guarded by mu.
	sq         sendQueue
	flushTimer *time.Timer

	// Reusable send-side scratch, guarded by mu like the queue: wbuf holds
	// one batch container per write (length prefix right-aligned before the
	// body), objScratch the per-container object list for the ledgers.
	wbuf       []byte
	objScratch []ObjID

	// manEnc is the manifest's canonical encoding: what actually travels in
	// every handshake and is byte-compared.
	manEnc []byte

	statsMu sync.Mutex
	stats   Stats

	startupDone chan struct{}

	errs   chan error
	closed chan struct{} // closed under mu, so admit and Close never race
	once   sync.Once
	wg     sync.WaitGroup

	// Receive queue: every receive loop decodes its containers into pooled
	// buffers and pushes the zero-copy frames onto pframes, which recvPipe
	// serves to Recv or to a Receiver's dispatcher; claimed marks the
	// endpoint drained by a Receiver, after which Recv refuses. pframes holds
	// 64 frames, the default depth of a shard queue: when it is full the
	// receive loops block, the backpressure that reaches the sender. recvWG and
	// recvsDone implement the close-drain handshake: recvPipe keeps consuming
	// after Close until every receive loop has exited (each having handed over
	// or retracted its in-flight batch), so the served frames match the wire
	// ledger exactly and no frame is stranded in pframes.
	pframes   chan pipeFrame
	claimed   atomic.Bool
	recvWG    sync.WaitGroup
	recvsDone chan struct{}

	// hung counts peer connections that ended cleanly (EOF after all their
	// frames were handed over): a finished peer closing its endpoint is part
	// of the protocol, not a failure, so Recv keeps serving buffered frames
	// and only reports exhaustion once every peer is gone.
	hungMu  sync.Mutex
	hung    int
	hungCh  chan struct{}
	peerCnt int
}

// streamAddr is one parsed "network:address" endpoint.
type streamAddr struct {
	network, address string
}

func (a streamAddr) String() string { return a.network + ":" + a.address }

// parseAddr parses "unix:/path/to.sock" or "tcp:host:port".
func parseAddr(s string) (streamAddr, error) {
	network, address, ok := strings.Cut(s, ":")
	if !ok || address == "" {
		return streamAddr{}, fmt.Errorf("transport: address %q is not network:address", s)
	}
	switch network {
	case "unix", "tcp":
		return streamAddr{network: network, address: address}, nil
	default:
		return streamAddr{}, fmt.Errorf("transport: unsupported network %q (want unix or tcp)", network)
	}
}

// endpointConfig is the option set Listen and Mem.Endpoint share; Stream and
// Mem endpoints both embed it.
type endpointConfig struct {
	recvTimeout time.Duration
	policy      BatchPolicy
	recvPol     RecvPolicy
	// man is the object manifest this endpoint exchanges and validates
	// during every handshake.
	man Manifest
	// Late-join bookkeeping: late marks peers Listen neither dials nor waits
	// for (a background acceptor admits them whenever they arrive); joiner
	// marks this endpoint as one of those late peers, dialing everyone.
	late   map[model.NodeID]bool
	joiner bool
}

// newEndpointConfig applies opts over the defaults (a 30s receive timeout,
// no batching, one receive shard) and normalizes the policies.
func newEndpointConfig(opts []StreamOption) endpointConfig {
	c := endpointConfig{recvTimeout: 30 * time.Second}
	for _, o := range opts {
		o(&c)
	}
	c.policy = c.policy.normalized()
	c.recvPol = c.recvPol.normalized()
	return c
}

// StreamOption configures Listen and Mem.Endpoint (see Mem.Endpoint for the
// options that do nothing there).
type StreamOption func(*endpointConfig)

// WithRecvTimeout bounds each blocking Recv.
func WithRecvTimeout(d time.Duration) StreamOption {
	return func(c *endpointConfig) { c.recvTimeout = d }
}

// WithBatching installs a write-batching policy: broadcasts queue and
// coalesce into one batch container per flush (see BatchPolicy for the
// flush triggers). The default policy flushes every frame immediately.
func WithBatching(p BatchPolicy) StreamOption {
	return func(c *endpointConfig) { c.policy = p }
}

// WithReceiver sets the shard layout (see RecvPolicy) of the receive
// pipeline Node.StartReceiver starts over this endpoint; without it the
// pipeline runs one shard. Nothing else depends on it: the receive loops
// always decode into pooled buffers, and Recv serves them until a Receiver
// claims the endpoint.
func WithReceiver(p RecvPolicy) StreamOption {
	return func(c *endpointConfig) { c.recvPol = p }
}

// recvPolicy exposes the pipeline's shard layout (the recvPolicied hook
// Node.StartReceiver reads).
func (c *endpointConfig) recvPolicy() RecvPolicy { return c.recvPol }

// WithManifest declares the object manifest of a multiplexed mesh: every
// handshake carries the manifest's canonical encoding, and both ends require
// byte-identical manifests before a connection is admitted — peers that
// disagree on what an object ID means never exchange a frame. Without the
// option the endpoint runs the empty manifest (a single-object group), which
// only matches peers equally without one.
func WithManifest(m Manifest) StreamOption {
	return func(c *endpointConfig) { c.man = m.Sorted() }
}

// WithLateJoiners declares peers expected to join after the mesh starts:
// Listen neither dials nor waits for them, and a background acceptor admits
// each one whenever it arrives — handshaked like any peer. Broadcasts made
// before a late peer's admission simply never reach it; the snapshot
// catch-up protocol (Peer.CatchUp) is how it recovers that history.
func WithLateJoiners(ids ...model.NodeID) StreamOption {
	return func(c *endpointConfig) {
		if c.late == nil {
			c.late = map[model.NodeID]bool{}
		}
		for _, id := range ids {
			c.late[id] = true
		}
	}
}

// AsLateJoiner marks this endpoint as a late joiner: Listen dials every
// other peer, whatever its number, instead of splitting dial/accept by rank
// — the mesh is already up, so everyone is dialable. The running peers must
// have declared this node with WithLateJoiners.
func AsLateJoiner() StreamOption {
	return func(c *endpointConfig) { c.joiner = true }
}

// handshake magic: distinguishes a peer of this protocol from a stray
// connection before trusting its node ID. The trailing byte versions the
// wire format; \x03 added the snapshot-request/response frames and the
// acknowledgement deps on done frames, \x04 adds the object-ID field to the
// inner frame encoding and the manifest exchange in the handshake. The
// version byte gates the frame layout: a \x03 peer's frames (no obj field)
// never reach a \x04 decoder, because the handshake fails first with a
// version-mismatch error.
var streamMagic = []byte("crdt-repl\x04")

// Handshake wire form, symmetric since \x04 (the dialer writes first, the
// acceptor answers):
//
//	magic (10 bytes, version last) · uvarint node id · bytes manifest
//	(the Manifest encoding inside one codec bytes field)

// Listen opens node self's endpoint of a replication group whose node i
// listens on addrs[i] (each "unix:/path" or "tcp:host:port"). It blocks
// until the full mesh is connected: peers may start in any order within
// dialTimeout (15s). On success every pair of nodes shares exactly one
// connection, handshaked with the peer's node ID.
func Listen(self model.NodeID, addrs []string, opts ...StreamOption) (*Stream, error) {
	if int(self) < 0 || int(self) >= len(addrs) {
		return nil, fmt.Errorf("transport: node %s outside the %d-entry address table", self, len(addrs))
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("transport: a replication group needs at least 2 addresses, got %d", len(addrs))
	}
	s := &Stream{
		endpointConfig: newEndpointConfig(opts),
		self:           self,
		conns:          make([]net.Conn, len(addrs)),
		errs:           make(chan error, len(addrs)),
		closed:         make(chan struct{}),
		startupDone:    make(chan struct{}),
		pframes:        make(chan pipeFrame, 64),
		recvsDone:      make(chan struct{}),
		hungCh:         make(chan struct{}, len(addrs)),
	}
	s.stats.Sent = make([]PeerIO, len(addrs))
	s.stats.Recv = make([]PeerIO, len(addrs))
	if err := s.man.Validate(); err != nil {
		return nil, err
	}
	s.manEnc = s.man.Encode()
	if s.joiner && len(s.late) > 0 {
		return nil, fmt.Errorf("transport: a late joiner does not declare late joiners of its own")
	}
	for id := range s.late {
		if int(id) < 0 || int(id) >= len(addrs) || id == self {
			return nil, fmt.Errorf("transport: late joiner %s outside the %d-entry address table", id, len(addrs))
		}
	}
	for _, a := range addrs {
		pa, err := parseAddr(a)
		if err != nil {
			return nil, err
		}
		s.addrs = append(s.addrs, pa)
	}
	// Every peer in the table counts: a late joiner that has not arrived yet
	// must still be waited for before Recv reports exhaustion.
	s.peerCnt = len(addrs) - 1
	ln, err := net.Listen(s.addrs[self].network, s.addrs[self].address)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", s.addrs[self], err)
	}
	s.ln = ln
	// Every failure from here on goes through Close, which also ends the
	// close-drain goroutine.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.closed
		s.recvWG.Wait()
		close(s.recvsDone)
	}()
	const dialTimeout = 15 * time.Second
	deadline := time.Now().Add(dialTimeout)
	// Accept connections in the background while dialing: higher-numbered
	// mesh peers during startup, declared late joiners whenever they arrive.
	wantAccepts := 0
	if !s.joiner {
		for peer := int(self) + 1; peer < len(addrs); peer++ {
			if !s.late[model.NodeID(peer)] {
				wantAccepts++
			}
		}
	}
	acceptCh := make(chan accepted, len(addrs))
	if wantAccepts > 0 || (len(s.late) > 0 && !s.joiner) {
		s.wg.Add(1)
		go s.acceptLoop(acceptCh, deadline)
	}
	fail := func(err error) (*Stream, error) {
		s.Close()
		return nil, err
	}
	for peer := 0; peer < len(addrs); peer++ {
		id := model.NodeID(peer)
		if id == self || s.late[id] {
			continue
		}
		if !s.joiner && peer > int(self) {
			continue // startup accepts handle the higher-numbered mesh peers
		}
		c, err := s.dialPeer(s.addrs[peer], id, deadline)
		if err != nil {
			return fail(err)
		}
		s.admit(id, c)
	}
	for i := 0; i < wantAccepts; i++ {
		select {
		case a := <-acceptCh:
			if a.err != nil {
				return fail(fmt.Errorf("transport: accepting peers on %s: %w", s.addrs[self], a.err))
			}
			if int(a.peer) <= int(self) || int(a.peer) >= len(addrs) || s.late[a.peer] || s.hasConn(a.peer) {
				a.c.Close()
				return fail(fmt.Errorf("transport: unexpected handshake from node %s", a.peer))
			}
			s.admit(a.peer, a.c)
		case <-time.After(time.Until(deadline)):
			return fail(fmt.Errorf("transport: %w: %d peer(s) never connected to %s",
				ErrTimeout, wantAccepts-i, s.addrs[self]))
		}
	}
	close(s.startupDone)
	return s, nil
}

// accepted is one handshaked (or failed) inbound connection handed from the
// accept loop to Listen's startup phase.
type accepted struct {
	peer model.NodeID
	c    net.Conn
	err  error
}

// acceptLoop accepts inbound connections until the endpoint closes. Declared
// late joiners are admitted directly, whenever they arrive; everything else
// is handed to Listen's startup phase, and closed once startup is over (the
// mesh is complete — only late joiners may still connect).
func (s *Stream) acceptLoop(acceptCh chan<- accepted, startupDeadline time.Time) {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
			case <-s.startupDone:
			default:
				select {
				case acceptCh <- accepted{err: err}:
				default:
				}
			}
			return
		}
		// Handshake deadline: the startup deadline for mesh peers, floored so
		// a late joiner arriving afterwards still gets a full window.
		hsDeadline := startupDeadline
		if floor := time.Now().Add(5 * time.Second); hsDeadline.Before(floor) {
			hsDeadline = floor
		}
		peer, err := s.acceptHandshake(c, hsDeadline)
		if err != nil {
			c.Close()
			select {
			case <-s.startupDone:
				continue // a stray post-startup connection; keep serving
			default:
			}
			select {
			case acceptCh <- accepted{err: err}:
			default:
			}
			return
		}
		if s.late[peer] {
			if !s.admit(peer, c) {
				c.Close()
			}
			continue
		}
		select {
		case <-s.startupDone:
			c.Close() // the mesh is complete; only late joiners may connect
		default:
			acceptCh <- accepted{peer: peer, c: c}
		}
	}
}

// admit installs one handshaked peer connection and starts its receive
// loop. It refuses duplicates and admissions after Close (the caller closes
// the connection).
func (s *Stream) admit(peer model.NodeID, c net.Conn) bool {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return false
	default:
	}
	if s.conns[peer] != nil {
		s.mu.Unlock()
		return false
	}
	s.conns[peer] = c
	// Registered under mu: Close closes the endpoint under mu too, so the
	// close-drain handshake never starts waiting before this loop counts.
	s.wg.Add(1)
	s.recvWG.Add(1)
	s.mu.Unlock()
	go s.recvLoop(peer, c)
	return true
}

// hasConn reports whether a connection to peer is installed.
func (s *Stream) hasConn(peer model.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[peer] != nil
}

// ConnectedPeers returns the peers a connection is currently installed to —
// the set the snapshot compaction frontier must wait for. A declared late
// joiner appears once admitted.
func (s *Stream) ConnectedPeers() []model.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.NodeID, 0, len(s.conns))
	for peer, c := range s.conns {
		if c != nil {
			out = append(out, model.NodeID(peer))
		}
	}
	return out
}

// hangup records one peer connection ending cleanly and wakes any blocked
// Recv so it can re-evaluate.
func (s *Stream) hangup() {
	s.hungMu.Lock()
	s.hung++
	s.hungMu.Unlock()
	select {
	case s.hungCh <- struct{}{}:
	default:
	}
}

// allHungUp reports whether every peer connection has ended cleanly. Each
// hangup is recorded only after that connection's frames were all handed to
// the receive queue, so allHungUp implies no more frames will ever arrive.
func (s *Stream) allHungUp() bool {
	s.hungMu.Lock()
	defer s.hungMu.Unlock()
	return s.hung == s.peerCnt
}

// dialPeer connects to a peer's listener, retrying until the deadline (the
// peer process may not have started listening yet), and handshakes: it
// writes its own hello, reads the acceptor's answer, and verifies the wire
// version, the peer's identity, and the object manifest before the
// connection is trusted.
func (s *Stream) dialPeer(addr streamAddr, expect model.NodeID, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		c, err := net.DialTimeout(addr.network, addr.address, time.Until(deadline))
		if err == nil {
			if err := writeHandshake(c, s.self, s.manEnc); err != nil {
				c.Close()
				return nil, fmt.Errorf("transport: handshake with %s: %w", addr, err)
			}
			c.SetReadDeadline(deadline)
			peer, theirMan, err := readHandshake(c)
			c.SetReadDeadline(time.Time{})
			if err == nil && peer != expect {
				err = fmt.Errorf("node %s answered where node %s should listen", peer, expect)
			}
			if err == nil {
				err = s.checkManifest(peer, theirMan)
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("transport: handshake with %s: %w", addr, err)
			}
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: %w dialing %s: %v", ErrTimeout, addr, lastErr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// acceptHandshake reads the dialer's hello and answers with this endpoint's
// own before validating the manifest, so a mismatch is observed symmetrically
// on both ends instead of surfacing as a bare hangup at the dialer. It reads
// exact byte counts straight off the connection — no read-ahead buffering —
// so frames the dialer pipelines right behind the handshake stay in the
// socket for the receive loop.
func (s *Stream) acceptHandshake(c net.Conn, deadline time.Time) (model.NodeID, error) {
	c.SetReadDeadline(deadline)
	defer c.SetReadDeadline(time.Time{})
	peer, theirMan, err := readHandshake(c)
	if err != nil {
		return 0, err
	}
	if err := writeHandshake(c, s.self, s.manEnc); err != nil {
		return 0, fmt.Errorf("transport: handshake answer: %w", err)
	}
	if err := s.checkManifest(peer, theirMan); err != nil {
		return 0, err
	}
	return peer, nil
}

// writeHandshake writes one endpoint's hello: magic, node ID, manifest.
func writeHandshake(c net.Conn, self model.NodeID, manEnc []byte) error {
	buf := append([]byte(nil), streamMagic...)
	buf = binary.AppendUvarint(buf, uint64(self))
	buf = codec.AppendBytes(buf, manEnc)
	_, err := c.Write(buf)
	return err
}

// readHandshake reads one endpoint's hello, distinguishing a wrong wire
// version (a peer of this protocol, older or newer) from a stray connection.
func readHandshake(c net.Conn) (model.NodeID, []byte, error) {
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(c, magic); err != nil {
		return 0, nil, fmt.Errorf("transport: handshake read: %w", err)
	}
	if string(magic[:len(magic)-1]) != string(streamMagic[:len(streamMagic)-1]) {
		return 0, nil, fmt.Errorf("transport: handshake magic mismatch")
	}
	if magic[len(magic)-1] != streamMagic[len(streamMagic)-1] {
		return 0, nil, fmt.Errorf("transport: handshake version mismatch: peer speaks wire version %d, this node speaks %d",
			magic[len(magic)-1], streamMagic[len(streamMagic)-1])
	}
	peer, err := binary.ReadUvarint(oneByteReader{c})
	if err != nil {
		return 0, nil, fmt.Errorf("transport: handshake node id: %w", err)
	}
	n, err := binary.ReadUvarint(oneByteReader{c})
	if err != nil {
		return 0, nil, fmt.Errorf("transport: handshake manifest length: %w", err)
	}
	if n > maxWireFrame {
		return 0, nil, fmt.Errorf("transport: %d-byte handshake manifest exceeds the %d cap", n, maxWireFrame)
	}
	man := make([]byte, n)
	if _, err := io.ReadFull(c, man); err != nil {
		return 0, nil, fmt.Errorf("transport: handshake manifest: %w", err)
	}
	return model.NodeID(peer), man, nil
}

// checkManifest requires the peer's manifest encoding to be byte-identical
// to ours — canonical encodings, so byte equality is manifest equality.
func (s *Stream) checkManifest(peer model.NodeID, theirs []byte) error {
	if string(theirs) == string(s.manEnc) {
		return nil
	}
	theirMan, err := DecodeManifest(theirs)
	rendered := "(undecodable)"
	if err == nil {
		rendered = theirMan.String()
	}
	return fmt.Errorf("transport: object manifest mismatch with node %s: ours %s, theirs %s", peer, s.man, rendered)
}

// oneByteReader adapts an io.Reader to io.ByteReader with single-byte reads
// (no read-ahead).
type oneByteReader struct{ r io.Reader }

func (b oneByteReader) ReadByte() (byte, error) {
	var p [1]byte
	_, err := io.ReadFull(b.r, p[:])
	return p[0], err
}

// maxWireFrame bounds one batch container read off a socket (defense
// against a corrupted length prefix allocating unboundedly).
const maxWireFrame = 16 << 20

// rxBuf is one received batch container: the frames decoded from it alias
// buf, and refs counts those not yet released. The last release returns the
// container to rxPool. Recv never releases, so a container served through it
// is left to the garbage collector and its frames stay valid.
type rxBuf struct {
	buf  []byte
	refs atomic.Int32
}

var rxPool = sync.Pool{New: func() any { return new(rxBuf) }}

// rxGet returns a pooled container buffer of length n.
func rxGet(n int) *rxBuf {
	rb := rxPool.Get().(*rxBuf)
	if cap(rb.buf) < n {
		rb.buf = make([]byte, n)
	}
	rb.buf = rb.buf[:n]
	return rb
}

// release drops one frame's reference to the container.
func (rb *rxBuf) release() {
	if rb.refs.Add(-1) == 0 {
		rxPool.Put(rb)
	}
}

// recvLoop reads batch containers from one peer connection into pooled
// buffers and feeds their zero-copy frames into the receive queue. A nested
// frame rejected by its own checksum is dropped and counted
// (FramesRejected) while the rest of the batch still delivers; structural
// corruption of the container ends the connection with an error.
func (s *Stream) recvLoop(peer model.NodeID, c net.Conn) {
	defer s.wg.Done()
	defer s.recvWG.Done()
	br := bufio.NewReader(c)
	// Per-container scratch: every frame is handed over by value before the
	// next container is read.
	var frames []Frame
	var objs []ObjID
	for {
		n, err := binary.ReadUvarint(br)
		if err == nil && n > maxWireFrame {
			err = fmt.Errorf("%w: %d-byte batch container exceeds the %d cap", codec.ErrCorrupt, n, maxWireFrame)
		}
		var rb *rxBuf
		if err == nil {
			rb = rxGet(int(n))
			if _, err = io.ReadFull(br, rb.buf); err == nil {
				frames, err = appendBatch(frames[:0], rb.buf)
			}
		}
		var bad *BatchError
		if errors.As(err, &bad) {
			// Only nested frames failed: deliver the survivors, count the
			// rejections, keep the connection.
			s.statsMu.Lock()
			s.stats.FramesRejected += len(bad.Rejected)
			s.statsMu.Unlock()
			err = nil
		}
		if err != nil {
			if rb != nil {
				rxPool.Put(rb)
			}
			select {
			case <-s.closed:
			default:
				if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) {
					// The peer finished and closed its end after flushing
					// everything: a clean hangup, not a failure. A reset
					// carries the same meaning as the EOF: the protocol only
					// closes an endpoint after the close-flush, but a close
					// racing our own final flush (still unread in the peer's
					// receive buffer) turns the FIN into an RST. Frames a
					// reset might discard were by construction not awaited —
					// if they were, quiescence stalls and times out loudly.
					s.hangup()
					return
				}
				select {
				case s.errs <- fmt.Errorf("transport: receiving from node %s: %w", peer, err):
				default:
				}
			}
			return
		}
		objs = objs[:0]
		for _, f := range frames {
			objs = append(objs, f.Obj)
		}
		s.statsMu.Lock()
		s.stats.noteRecv(peer, 1, uvarintLen(n)+int(n), objs)
		s.statsMu.Unlock()
		if len(frames) == 0 {
			rxPool.Put(rb)
			continue
		}
		rb.refs.Store(int32(len(frames)))
		for i, f := range frames {
			select {
			case s.pframes <- pipeFrame{f: f, buf: rb}:
			case <-s.closed:
				// Closing: recvPipe keeps draining until every receive loop
				// exits, so anything not handed over now will never be
				// served — retract it from the wire ledger (Balance audits
				// received == dispatched).
				s.statsMu.Lock()
				s.stats.noteRecvDropped(peer, objs[i:])
				s.statsMu.Unlock()
				return
			}
		}
	}
}

// Self returns this endpoint's node ID.
func (s *Stream) Self() model.NodeID { return s.self }

// N returns the replication group size.
func (s *Stream) N() int { return len(s.addrs) }

// closedLocked reports whether Close has run. Called with mu held.
func (s *Stream) closedLocked() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Broadcast queues one frame for every peer, encoded into a wire container
// when a policy trigger fires (frame cap, byte cap, the flush deadline, an
// explicit Flush, or Close). With the default policy the frame flushes
// immediately, one container per frame.
func (s *Stream) Broadcast(f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return ErrClosed
	}
	s.sq.push(f)
	s.statsMu.Lock()
	s.stats.noteQueued(f.Obj)
	s.statsMu.Unlock()
	if trigger, full := s.sq.capTrigger(s.policy); full {
		return s.flushLocked(trigger, f.Obj)
	}
	if s.policy.MaxDelay > 0 && s.flushTimer == nil {
		s.armDeadlineLocked(f.Obj)
	}
	return nil
}

// armDeadlineLocked starts the flush timer for the pending batch whose first
// frame, of object obj, was just queued; obj gets the deadline flush's
// credit. Called with mu held.
func (s *Stream) armDeadlineLocked(obj ObjID) {
	var t *time.Timer
	t = time.AfterFunc(s.policy.MaxDelay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		// A flush that stopped t too late to cancel this call has already
		// taken the batch t was armed for.
		if s.flushTimer == t {
			s.flushLocked(trigDelay, obj)
		}
	})
	s.flushTimer = t
}

// flushLocked drains the whole send queue to every peer connection in
// arrival order and disarms the flush timer, counting the trigger once
// however many containers the batch needs: the queue splits only where a
// container would outgrow what a receiver accepts (the jumbo-snapshot
// guard). Called with mu held.
func (s *Stream) flushLocked(trigger int, cause ObjID) error {
	if s.flushTimer != nil {
		s.flushTimer.Stop()
		s.flushTimer = nil
	}
	items := s.sq.items
	if len(items) == 0 {
		return nil
	}
	s.statsMu.Lock()
	s.stats.noteFlush(trigger, cause)
	s.statsMu.Unlock()
	var firstErr error
	for len(items) > 0 {
		n := containerLen(items, maxWireFrame-2*binary.MaxVarintLen64)
		if err := s.writeContainerLocked(items[:n]); err != nil && firstErr == nil {
			firstErr = err
		}
		items = items[n:]
	}
	s.sq.reset()
	return firstErr
}

// containerLocked assembles items into one length-prefixed batch container
// (uvarint count + the items' nested envelopes, each written in place by
// Frame.appendWire) in the reusable write buffer. It returns the wire image
// and the items' objects, both valid until the next call. Called with mu
// held.
func (s *Stream) containerLocked(items []sendItem) (wire []byte, objs []ObjID) {
	size := 0
	for _, it := range items {
		size += it.wire
	}
	// MaxVarintLen64 bytes reserved up front, the container body appended
	// after them, then the length varint right-aligned against the body —
	// one buffer, no copy of the assembled body.
	const pfx = binary.MaxVarintLen64
	wb := s.wbuf
	if need := pfx + pfx + size; cap(wb) < need {
		wb = make([]byte, pfx, need)
	}
	body := codec.AppendUvarint(wb[:pfx], uint64(len(items)))
	objs = s.objScratch[:0]
	for _, it := range items {
		body = it.frame.appendWire(body)
		objs = append(objs, it.frame.Obj)
	}
	var lenBuf [pfx]byte
	ln := binary.PutUvarint(lenBuf[:], uint64(len(body)-pfx))
	start := pfx - ln
	copy(body[start:pfx], lenBuf[:ln])
	s.wbuf = body[:pfx]
	s.objScratch = objs[:0]
	return body[start:], objs
}

// writeContainerLocked writes one batch container of queued items to every
// peer connection and settles the ledgers: per-peer/per-object IO and the
// drained counts. Called with mu held.
func (s *Stream) writeContainerLocked(items []sendItem) error {
	buf, objs := s.containerLocked(items)
	// Write to every healthy conn before reporting a failure: aborting on the
	// first dead peer would silently starve the remaining ones of frames they
	// were promised.
	var firstErr error
	for peer, c := range s.conns {
		if c == nil {
			continue
		}
		if _, err := c.Write(buf); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: sending to node %d: %w", peer, err)
			}
			continue
		}
		s.statsMu.Lock()
		s.stats.noteSent(model.NodeID(peer), 1, len(buf), objs)
		s.statsMu.Unlock()
	}
	s.statsMu.Lock()
	for _, it := range items {
		s.stats.Sched.noteDrained(it.frame.Obj)
	}
	s.statsMu.Unlock()
	return firstErr
}

// Send ships one frame to exactly one peer: the snapshot protocol's response
// channel. The pending broadcast batch is flushed first so the unicast
// cannot overtake broadcasts queued before it on the same connection.
func (s *Stream) Send(to model.NodeID, f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return ErrClosed
	}
	if int(to) < 0 || int(to) >= len(s.addrs) || to == s.self {
		return fmt.Errorf("transport: cannot unicast to node %s", to)
	}
	c := s.conns[to]
	if c == nil {
		return fmt.Errorf("transport: no connection to node %s", to)
	}
	if err := s.flushLocked(trigExplicit, 0); err != nil {
		return err
	}
	items := [1]sendItem{{frame: f, wire: f.wireLen()}}
	buf, objs := s.containerLocked(items[:])
	if _, err := c.Write(buf); err != nil {
		return fmt.Errorf("transport: sending to node %s: %w", to, err)
	}
	s.statsMu.Lock()
	s.stats.noteSent(to, 1, len(buf), objs)
	s.statsMu.Unlock()
	return nil
}

// Flush forces the pending batch down to every peer.
func (s *Stream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return ErrClosed
	}
	return s.flushLocked(trigExplicit, 0)
}

// Stats returns a snapshot of the endpoint's batching and IO counters.
func (s *Stream) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats.clone()
}

// Manifest returns the object manifest this endpoint handshakes with (nil
// for a single-object group).
func (s *Stream) Manifest() Manifest { return s.man }

// Recv returns the next frame received from any peer, under recvPipe's
// rules. The frame's payload aliases its received container, which Recv
// leaves to the garbage collector instead of the buffer pool, so the frame
// stays valid for as long as the caller keeps it. Recv refuses once a
// Receiver drains the endpoint.
func (s *Stream) Recv(wait bool) (Frame, bool, error) {
	if s.claimed.Load() {
		return Frame{}, false, fmt.Errorf("transport: Recv on an endpoint whose receive side is owned by the pipeline (NewReceiver)")
	}
	pf, ok, err := s.recvPipe(wait)
	return pf.f, ok, err
}

// recvTimer is a blocking receive's deadline. It is armed on the first wait
// and stopped when the receive returns: under the module's go 1.22 timer
// semantics an unstopped timer stays live until it fires, so a fresh
// time.After per wait would pin one timer per received container for the
// whole receive timeout.
type recvTimer struct{ t *time.Timer }

// after arms the timer on first use and returns its channel. Later waits of
// the same receive share the deadline.
func (r *recvTimer) after(d time.Duration) <-chan time.Time {
	if r.t == nil {
		r.t = time.NewTimer(d)
	}
	return r.t.C
}

func (r *recvTimer) stop() {
	if r.t != nil {
		r.t.Stop()
	}
}

// recvPipe returns the next zero-copy frame from the receive queue: what a
// Receiver's dispatcher drains, and Recv underneath. Buffered frames are always served
// first — a peer that finished and hung up has already pushed everything it
// sent, so its hangup never hides frames. With wait=true it blocks up to the
// receive timeout; a decode failure surfaces as the error recorded by the
// receive loop, and once every peer has hung up and the queue is drained it
// reports ErrExhausted. After Close it keeps serving until every receive
// loop has exited, then reports ErrClosed.
func (s *Stream) recvPipe(wait bool) (pipeFrame, bool, error) {
	var timeout recvTimer
	defer timeout.stop()
	for {
		select {
		case pf := <-s.pframes:
			return pf, true, nil
		default:
		}
		if s.allHungUp() {
			// No connection can produce more frames; drain once more (a
			// frame may have landed between the checks), then report.
			select {
			case pf := <-s.pframes:
				return pf, true, nil
			default:
				return pipeFrame{}, false, ErrExhausted
			}
		}
		if !wait {
			select {
			case pf := <-s.pframes:
				return pf, true, nil
			case err := <-s.errs:
				return pipeFrame{}, false, err
			case <-s.closed:
				return s.closeDrain()
			default:
				return pipeFrame{}, false, nil
			}
		}
		select {
		case pf := <-s.pframes:
			return pf, true, nil
		case err := <-s.errs:
			return pipeFrame{}, false, err
		case <-s.hungCh:
			continue // a peer hung up: re-evaluate exhaustion
		case <-s.closed:
			return s.closeDrain()
		case <-timeout.after(s.recvTimeout):
			return pipeFrame{}, false, fmt.Errorf("transport: %w after %s", ErrTimeout, s.recvTimeout)
		}
	}
}

// closeDrain is recvPipe's Close path: keep consuming so receive loops
// blocked mid-batch can finish handing over (or retract) their frames, and
// report ErrClosed only once every loop has exited and the queue is empty.
// Returning on the close signal alone would race frames a loop pushed
// between the consumer's last look at the queue and its own closed check,
// stranding them counted-but-unserved.
func (s *Stream) closeDrain() (pipeFrame, bool, error) {
	select {
	case pf := <-s.pframes:
		return pf, true, nil
	case <-s.recvsDone:
		select {
		case pf := <-s.pframes:
			return pf, true, nil
		default:
			return pipeFrame{}, false, ErrClosed
		}
	}
}

// Close tears the endpoint down: a partially filled batch is flushed to the
// peers first (the clean-hangup drain — peers receive every queued frame
// before the EOF), then the listener and every peer connection are closed
// and the receive loops drained.
func (s *Stream) Close() error {
	s.once.Do(func() {
		s.mu.Lock()
		s.flushLocked(trigClose, 0)
		close(s.closed)
		s.mu.Unlock()
		if s.ln != nil {
			s.ln.Close()
		}
		s.mu.Lock()
		for _, c := range s.conns {
			if c != nil {
				c.Close()
			}
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}
