package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/model"
)

func batchFrames() []Frame {
	return []Frame{
		{Kind: KindEffector, MID: 1, From: 0, Payload: []byte("alpha")},
		{Kind: KindEffector, MID: 3, From: 0, Deps: []model.MsgID{1}, Payload: []byte("beta")},
		{Kind: KindDone, MID: 5, From: 0, Payload: codec.AppendUvarint(nil, 2)},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	frames := batchFrames()
	for n := 0; n <= len(frames); n++ {
		enc := EncodeBatch(frames[:n])
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode %d-frame batch: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d frames, want %d", len(got), n)
		}
		for i, f := range got {
			if !bytes.Equal(EncodeWire(f), EncodeWire(frames[i])) {
				t.Fatalf("frame %d mutated in the batch round trip", i)
			}
		}
	}
}

// envelopeOffsets returns the container offset where each nested frame's
// envelope starts, plus the container's total length.
func envelopeOffsets(frames []Frame) ([]int, int) {
	off := len(codec.AppendUvarint(nil, uint64(len(frames))))
	offs := make([]int, len(frames))
	for i, f := range frames {
		offs[i] = off
		off += len(EncodeWire(f))
	}
	return offs, off
}

// TestStreamContainerIsEncodeBatch pins the encoder that ships to the one
// the tests exercise: the container a Stream builds from its send queue is
// the length prefix plus EncodeBatch of the queued frames, byte for byte —
// across objects, frontier deps, unsorted hand-built deps and empty
// payloads, and again when the next container reuses the write buffer.
func TestStreamContainerIsEncodeBatch(t *testing.T) {
	frames := append(batchFrames(),
		Frame{Kind: KindEffector, Obj: 2, MID: 7, From: 1, Deps: []model.MsgID{6, 1, 300}, Payload: []byte("gamma")},
		Frame{Kind: KindSnapshotRequest, Obj: 300, MID: 8, From: 1, Deps: []model.MsgID{7}},
	)
	s := &Stream{}
	for _, n := range []int{len(frames), 1} {
		var wantObjs []ObjID
		for _, f := range frames[:n] {
			s.sq.push(f)
			wantObjs = append(wantObjs, f.Obj)
		}
		got, objs := s.containerLocked(s.sq.items)
		body := EncodeBatch(frames[:n])
		if want := append(binary.AppendUvarint(nil, uint64(len(body))), body...); !bytes.Equal(got, want) {
			t.Fatalf("%d-frame container %x, want the length prefix plus EncodeBatch %x", n, got, want)
		}
		if !reflect.DeepEqual(objs, wantObjs) {
			t.Fatalf("%d-frame container objects %v, want %v", n, objs, wantObjs)
		}
		s.sq.reset()
	}
}

// TestBatchCorruptNestedFrameRejectsOnlyIt flips a checksum bit of the
// middle frame: the batch must deliver the first and last frames and report
// exactly the middle one rejected.
func TestBatchCorruptNestedFrameRejectsOnlyIt(t *testing.T) {
	frames := batchFrames()
	enc := EncodeBatch(frames)
	offs, total := envelopeOffsets(frames)
	if total != len(enc) {
		t.Fatalf("offset math off: %d != %d", total, len(enc))
	}
	// The envelope's trailing 8 bytes are its checksum: flipping one there
	// leaves every length prefix intact, so the corruption is frame-local.
	cp := append([]byte(nil), enc...)
	cp[offs[2]-1] ^= 0x10
	got, err := DecodeBatch(cp)
	var bad *BatchError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(bad.Rejected) != 1 || bad.Rejected[0] != 1 {
		t.Fatalf("rejected %v, want [1]", bad.Rejected)
	}
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("BatchError does not wrap codec.ErrCorrupt: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want the 2 intact ones", len(got))
	}
	if got[0].MID != 1 || got[1].MID != 5 {
		t.Fatalf("delivered mids %s,%s, want 1,5", got[0].MID, got[1].MID)
	}
}

// TestBatchStructuralCorruption: damage that destroys the frame boundaries
// (count prefix, envelope length prefix, truncation, trailing bytes) voids
// the batch with a plain corrupt error, not a per-frame rejection.
func TestBatchStructuralCorruption(t *testing.T) {
	frames := batchFrames()
	enc := EncodeBatch(frames)
	offs, _ := envelopeOffsets(frames)
	cases := map[string][]byte{
		"truncated mid-batch": enc[:offs[1]+3],
		"trailing bytes":      append(append([]byte(nil), enc...), 0xaa),
		"count overflow":      append(codec.AppendUvarint(nil, 1000), enc[1:]...),
	}
	// Mangle the middle envelope's length prefix so it overruns the batch.
	lp := append([]byte(nil), enc...)
	lp[offs[1]] = 0xff
	lp[offs[1]+1] = 0x7f
	cases["length prefix overrun"] = lp
	for name, b := range cases {
		got, err := DecodeBatch(b)
		var bad *BatchError
		if errors.As(err, &bad) {
			t.Errorf("%s: got a per-frame BatchError, want structural failure", name)
		}
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want codec.ErrCorrupt", name, err)
		}
		for i, f := range got {
			if !frameAmong(f, frames) {
				t.Errorf("%s: surviving frame %d is not one of the originals: %+v", name, i, f)
			}
		}
	}
}

func frameAmong(f Frame, in []Frame) bool {
	w := EncodeWire(f)
	for _, g := range in {
		if bytes.Equal(w, EncodeWire(g)) {
			return true
		}
	}
	return false
}

// TestBatchBitFlipSweep flips every bit of an encoded batch: whatever the
// flip hits — count, a length prefix, a payload, a checksum — decoding must
// either report an error or return only frames byte-identical to originals.
// No flip may silently mutate a delivered frame.
func TestBatchBitFlipSweep(t *testing.T) {
	frames := batchFrames()
	enc := EncodeBatch(frames)
	for bit := 0; bit < len(enc)*8; bit++ {
		cp := append([]byte(nil), enc...)
		cp[bit/8] ^= 1 << (bit % 8)
		got, err := DecodeBatch(cp)
		if err == nil && len(got) != len(frames) {
			t.Fatalf("bit %d: clean decode of %d frames, want %d", bit, len(got), len(frames))
		}
		for i, f := range got {
			if !frameAmong(f, frames) {
				t.Fatalf("bit %d: delivered frame %d is a mutation (err=%v)", bit, i, err)
			}
		}
	}
}

// --- stream-level error paths -----------------------------------------------

// fakePeer dials addr and handshakes as node id, returning the raw
// connection for hand-crafted wire bytes.
func fakePeer(t *testing.T, network, address string, id uint64) net.Conn {
	t.Helper()
	var c net.Conn
	var err error
	for i := 0; i < 200; i++ {
		c, err = net.Dial(network, address)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), streamMagic...)
	buf = binary.AppendUvarint(buf, id)
	buf = codec.AppendBytes(buf, Manifest(nil).Encode())
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Drain the acceptor's handshake answer so hand-crafted wire bytes start
	// from a clean read position on both ends.
	if _, _, err := readHandshake(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// listenNode0 opens node 0's endpoint of a 2-node unix group in the
// background and returns it once the fake node 1 can dial. opts apply after
// the default 5 s receive timeout.
func listenNode0(t *testing.T, opts ...StreamOption) (string, <-chan *Stream) {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	ch := make(chan *Stream, 1)
	go func() {
		st, err := Listen(0, addrs, append([]StreamOption{WithRecvTimeout(5 * time.Second)}, opts...)...)
		if err != nil {
			t.Error(err)
			close(ch)
			return
		}
		ch <- st
	}()
	return filepath.Join(dir, "n0.sock"), ch
}

// TestStreamRecvTimeout covers the receive deadline on both consumers of the
// receive queue (Recv, and the pipeline's recvPipe): a wait with nothing in
// flight fails with ErrTimeout once the short WithRecvTimeout elapses, and a
// wait that a frame satisfies leaves the next wait its whole timeout.
func TestStreamRecvTimeout(t *testing.T) {
	const timeout = 400 * time.Millisecond
	for _, piped := range []bool{false, true} {
		t.Run(fmt.Sprintf("piped=%v", piped), func(t *testing.T) {
			opts := []StreamOption{WithRecvTimeout(timeout)}
			if piped {
				opts = append(opts, WithReceiver(RecvPolicy{Workers: 1}))
			}
			path, ch := listenNode0(t, opts...)
			conn := fakePeer(t, "unix", path, 1)
			st, ok := <-ch
			if !ok {
				t.Fatal("listen failed")
			}
			defer st.Close()
			defer conn.Close()
			recv := func() (Frame, error) {
				if !piped {
					f, _, err := st.Recv(true)
					return f, err
				}
				pf, _, err := st.recvPipe(true)
				pf.release()
				return pf.f, err
			}
			// Two waits in a row, each satisfied by a frame sent 60% of the
			// timeout into it: a deadline carried over from the first wait
			// would expire during the second.
			for mid := model.MsgID(1); mid <= 2; mid++ {
				wire := wireContainer(EncodeBatch([]Frame{{Kind: KindEffector, MID: mid, From: 1, Payload: []byte("x")}}))
				send := time.AfterFunc(timeout*6/10, func() {
					if _, err := conn.Write(wire); err != nil {
						t.Error(err)
					}
				})
				f, err := recv()
				send.Stop()
				if err != nil {
					t.Fatalf("wait %d: %v", mid, err)
				}
				if f.MID != mid {
					t.Fatalf("wait %d received mid %s", mid, f.MID)
				}
			}
			start := time.Now()
			if _, err := recv(); !errors.Is(err, ErrTimeout) {
				t.Fatalf("idle wait: err=%v, want ErrTimeout", err)
			}
			if waited := time.Since(start); waited < timeout {
				t.Fatalf("idle wait gave up after %s, before the %s timeout", waited, timeout)
			}
		})
	}
}

// wireContainer length-prefixes a batch container as one wire write.
func wireContainer(container []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(container))), container...)
}

// TestStreamCorruptNestedFrameRejectsOnlyIt ships a 3-frame batch whose
// middle frame is corrupted into a live Stream: the two intact frames must
// deliver, the rejection must be counted, the connection must survive to
// hang up cleanly afterwards.
func TestStreamCorruptNestedFrameRejectsOnlyIt(t *testing.T) {
	path, ch := listenNode0(t)
	conn := fakePeer(t, "unix", path, 1)
	st, ok := <-ch
	if !ok {
		t.Fatal("listen failed")
	}
	defer st.Close()
	frames := batchFrames()
	enc := EncodeBatch(frames)
	offs, _ := envelopeOffsets(frames)
	enc[offs[2]-1] ^= 0x01 // middle frame's checksum
	if _, err := conn.Write(wireContainer(enc)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []model.MsgID{1, 5} {
		f, ok, err := st.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv: ok=%v err=%v", ok, err)
		}
		if f.MID != want {
			t.Fatalf("recv mid %s, want %s", f.MID, want)
		}
	}
	conn.Close() // clean hangup after the batch
	if _, ok, err := st.Recv(true); ok || err == nil {
		t.Fatalf("post-hangup recv: ok=%v err=%v, want exhaustion", ok, err)
	}
	if got := st.Stats(); got.FramesRejected != 1 {
		t.Fatalf("FramesRejected = %d, want 1", got.FramesRejected)
	}
}

// TestStreamShortReadMidBatch hangs a connection up in the middle of an
// announced batch: the receiver must surface an error, never a clean
// hangup that would silently swallow the loss.
func TestStreamShortReadMidBatch(t *testing.T) {
	path, ch := listenNode0(t)
	conn := fakePeer(t, "unix", path, 1)
	st, ok := <-ch
	if !ok {
		t.Fatal("listen failed")
	}
	defer st.Close()
	enc := EncodeBatch(batchFrames())
	wire := wireContainer(enc)
	if _, err := conn.Write(wire[:len(wire)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	_, ok, err := st.Recv(true)
	if ok || err == nil {
		t.Fatalf("recv after short read: ok=%v err=%v, want an error", ok, err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("short read surfaced as a timeout, want a receive error: %v", err)
	}
}

// TestStreamCloseDrainLedgerOnRecv pins the close-drain handshake on the pull
// path: a peer sends one container of more frames than the receive queue
// holds while nothing reads, so the receive loop blocks mid-container. After
// Close, draining through Recv until ErrClosed must return exactly the frames
// the wire ledger still counts received — the blocked loop retracts what it
// never handed over.
func TestStreamCloseDrainLedgerOnRecv(t *testing.T) {
	path, ch := listenNode0(t)
	conn := fakePeer(t, "unix", path, 1)
	defer conn.Close()
	st, ok := <-ch
	if !ok {
		t.Fatal("listen failed")
	}
	defer st.Close()
	const sent = 100
	frames := make([]Frame, sent)
	for i := range frames {
		frames[i] = Frame{Kind: KindEffector, MID: model.MsgID(i + 1), From: 1, Payload: []byte{byte(i)}}
	}
	if _, err := conn.Write(wireContainer(EncodeBatch(frames))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(st.pframes) < cap(st.pframes) || st.Stats().TotalRecv().Frames != sent {
		if time.Now().After(deadline) {
			t.Fatalf("receive loop never blocked: queue %d/%d, received %d", len(st.pframes), cap(st.pframes), st.Stats().TotalRecv().Frames)
		}
		time.Sleep(time.Millisecond)
	}
	st.Close()
	served := 0
	for {
		f, ok, err := st.Recv(true)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil || !ok {
			t.Fatalf("drain after close: ok=%v err=%v", ok, err)
		}
		if f.MID != model.MsgID(served+1) {
			t.Fatalf("drain served mid %s, want %d", f.MID, served+1)
		}
		served++
	}
	if got := st.Stats().TotalRecv().Frames; served != got || served != cap(st.pframes) {
		t.Fatalf("Recv served %d frames after Close, the ledger counts %d received, the queue held %d", served, got, cap(st.pframes))
	}
}

// TestStreamCloseDrainsPartialBatch closes a sender whose batch never hit a
// flush trigger: the close must drain the partial batch so the receiver
// sees every queued frame before the clean hangup.
func TestStreamCloseDrainsPartialBatch(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	var sender, receiver *Stream
	errs := make(chan error, 2)
	go func() {
		var err error
		sender, err = Listen(0, addrs, WithBatching(BatchPolicy{MaxFrames: 100}))
		errs <- err
	}()
	go func() {
		var err error
		receiver, err = Listen(1, addrs, WithRecvTimeout(5*time.Second))
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer receiver.Close()
	const queued = 3
	for i := 0; i < queued; i++ {
		if err := sender.Broadcast(Frame{Kind: KindEffector, MID: model.MsgID(i + 1), From: 0, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sender.Stats(); got.Flushes.Total() != 0 {
		t.Fatalf("batch flushed before close: %+v", got.Flushes)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv %d after sender close: ok=%v err=%v", i, ok, err)
		}
		if f.MID != model.MsgID(i+1) {
			t.Fatalf("recv %d: mid %s, want %d", i, f.MID, i+1)
		}
	}
	if _, ok, err := receiver.Recv(true); ok || err == nil {
		t.Fatal("receiver did not report exhaustion after the drain")
	}
	st := sender.Stats()
	if st.Flushes.Close != 1 || st.Sent[1].Frames != queued || st.Sent[1].Batches != 1 {
		t.Fatalf("sender stats after close drain: %+v", st)
	}
}

// TestStreamFlushTriggers drives each flush trigger on a live pair and
// checks the per-trigger counters and per-peer IO stats.
func TestStreamFlushTriggers(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "a.sock"),
		"unix:" + filepath.Join(dir, "b.sock"),
	}
	var sender, receiver *Stream
	errs := make(chan error, 2)
	go func() {
		var err error
		sender, err = Listen(0, addrs, WithBatching(BatchPolicy{MaxFrames: 3, MaxDelay: 40 * time.Millisecond}))
		errs <- err
	}()
	go func() {
		var err error
		receiver, err = Listen(1, addrs, WithRecvTimeout(5*time.Second))
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer sender.Close()
	defer receiver.Close()
	mid := model.MsgID(0)
	send := func(payload int) {
		mid++
		if err := sender.Broadcast(Frame{Kind: KindEffector, MID: mid, From: 0, Payload: bytes.Repeat([]byte{1}, payload)}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok, err := receiver.Recv(true); !ok || err != nil {
				t.Fatalf("recv: ok=%v err=%v", ok, err)
			}
		}
	}
	// Frame cap: three small frames flush as one batch.
	send(4)
	send(4)
	send(4)
	recv(3)
	// Delay: a lone frame flushes once the timer fires.
	send(4)
	recv(1)
	// Explicit flush.
	send(4)
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	recv(1)
	st := sender.Stats()
	if st.Flushes.Frames != 1 || st.Flushes.Delay != 1 || st.Flushes.Explicit != 1 {
		t.Fatalf("flush triggers = %+v, want one each of frames/delay/explicit", st.Flushes)
	}
	if st.FramesQueued != 5 || st.Sent[1].Frames != 5 || st.Sent[1].Batches != 3 {
		t.Fatalf("send stats = %+v, want 5 frames in 3 batches to peer 1", st)
	}
	if err := st.SchedBalance(); err != nil {
		t.Fatal(err)
	}
	if st.Sent[1].Bytes == 0 {
		t.Fatal("no wire bytes counted")
	}
	rst := receiver.Stats()
	if rst.Recv[0].Frames != 5 || rst.Recv[0].Batches != 3 || rst.Recv[0].Bytes != st.Sent[1].Bytes {
		t.Fatalf("receiver stats = %+v, want mirror of sender's %+v", rst.Recv[0], st.Sent[1])
	}
}

// TestMemBatchedEndpointDeterminism runs the same broadcast/flush sequence
// twice over batched Mem endpoints: deliveries and stats must replay
// identically, and the clean-hangup drain semantics must hold (Close
// flushes the pending batch).
func TestMemBatchedEndpointDeterminism(t *testing.T) {
	run := func() ([]model.MsgID, Stats) {
		m := NewMem(2)
		ep := m.Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 3})).(*memEndpoint)
		for i := 1; i <= 7; i++ {
			if err := ep.Broadcast(Frame{Kind: KindEffector, MID: model.MsgID(i), From: 0, Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		// 7 frames at MaxFrames=3: two cap flushes, one frame left pending.
		if got := m.PendingTo(1); got != 6 {
			t.Fatalf("pending after caps = %d, want 6", got)
		}
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
		if got := m.PendingTo(1); got != 7 {
			t.Fatalf("pending after close drain = %d, want 7", got)
		}
		rx := m.Endpoint(1)
		var mids []model.MsgID
		for {
			f, ok, err := rx.Recv(false)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			mids = append(mids, f.MID)
		}
		return mids, ep.Stats()
	}
	mids1, st1 := run()
	mids2, st2 := run()
	if fmt.Sprint(mids1) != fmt.Sprint(mids2) {
		t.Fatalf("delivery order not reproducible: %v vs %v", mids1, mids2)
	}
	if len(mids1) != 7 {
		t.Fatalf("delivered %d frames, want 7", len(mids1))
	}
	if st1.Flushes != st2.Flushes || st1.FramesQueued != st2.FramesQueued {
		t.Fatalf("stats not reproducible: %+v vs %+v", st1, st2)
	}
	if st1.Flushes.Frames != 2 || st1.Flushes.Close != 1 {
		t.Fatalf("flushes = %+v, want 2 cap + 1 close", st1.Flushes)
	}
	if st1.Sent[1].Frames != 7 || st1.Sent[1].Batches != 3 {
		t.Fatalf("sent = %+v, want 7 frames in 3 batches", st1.Sent[1])
	}
}

// TestMemEndpointClosed holds Mem endpoints to the Transport contract a
// Stream keeps: Close drains the pending batch once, closing again is a
// no-op, and every other operation then fails with ErrClosed.
func TestMemEndpointClosed(t *testing.T) {
	m := NewMem(2)
	ep := m.Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 8}))
	f := Frame{Kind: KindEffector, MID: 1, From: 0, Payload: []byte{1}}
	if err := ep.Broadcast(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ep.Close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	if got := m.PendingTo(1); got != 1 {
		t.Fatalf("pending after close = %d, want the drained frame alone", got)
	}
	f.MID = 3
	for name, op := range map[string]func() error{
		"Broadcast": func() error { return ep.Broadcast(f) },
		"Send":      func() error { return ep.Send(1, f) },
		"Flush":     ep.Flush,
		"Recv":      func() error { _, _, err := ep.Recv(true); return err },
	} {
		if err := op(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", name, err)
		}
	}
	if got := m.PendingTo(1); got != 1 {
		t.Fatalf("pending = %d after refused operations, want 1", got)
	}
}

// TestMemByteLedgersBalance: a Mem endpoint charges each received frame the
// nested envelope its sender was charged, so on a drained mesh the bytes
// sent and received sum to the same total. Batch counts differ by design: a
// flush is one container per peer, and Mem receives frame by frame.
func TestMemByteLedgersBalance(t *testing.T) {
	m := NewMem(3)
	eps := []Transport{
		m.Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 3})),
		m.Endpoint(1),
		m.Endpoint(2),
	}
	for i := 1; i <= 7; i++ {
		if err := eps[0].Broadcast(Frame{Kind: KindEffector, MID: model.MsgID(3 * i), From: 0, Deps: []model.MsgID{2}, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[1].Broadcast(Frame{Kind: KindDone, MID: 2, From: 1, Payload: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	if err := eps[2].Send(0, Frame{Kind: KindSnapshot, MID: 6, From: 2, Payload: []byte("state")}); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Flush(); err != nil {
		t.Fatal(err)
	}
	var sent, recv PeerIO
	for _, ep := range eps {
		for {
			_, ok, err := ep.Recv(false)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	for _, ep := range eps {
		st := ep.Stats()
		sent, recv = sent.add(st.TotalSent()), recv.add(st.TotalRecv())
	}
	if sent.Frames != 7*2+2+1 || recv.Frames != sent.Frames {
		t.Fatalf("frames sent %d, received %d, want 17 each", sent.Frames, recv.Frames)
	}
	if sent.Bytes == 0 || recv.Bytes != sent.Bytes {
		t.Fatalf("drained mesh sent %d B but received %d B", sent.Bytes, recv.Bytes)
	}
}
