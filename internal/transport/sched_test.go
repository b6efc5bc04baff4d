package transport

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// item builds one pending broadcast for the pure scheduler tests.
func item(obj ObjID, wire int) schedItem { return schedItem{frame: Frame{Obj: obj}, wire: wire} }

func drainObjs(items []schedItem) []ObjID {
	out := make([]ObjID, len(items))
	for i, it := range items {
		out[i] = it.frame.Obj
	}
	return out
}

// TestSchedDRRDrainOrder pins the deficit-weighted round-robin drain: with
// weights 1:3, every visit grants object 1 one frame and object 2 three, in
// ring order (first activation first), FIFO within each object, deficits
// resuming across container boundaries within one flush.
func TestSchedDRRDrainOrder(t *testing.T) {
	s := newSched(SchedPolicy{Weights: map[ObjID]int{1: 1, 2: 3}}, false)
	for i := 0; i < 6; i++ {
		s.enqueue(item(1, 10))
	}
	for i := 0; i < 6; i++ {
		s.enqueue(item(2, 10))
	}
	var got [][]ObjID
	for s.pendN > 0 {
		got = append(got, drainObjs(s.drainChunk(4, 0)))
	}
	want := [][]ObjID{
		{1, 2, 2, 2}, // round 1: deficit 1 for obj 1, 3 for obj 2
		{1, 2, 2, 2}, // round 2 resumes cleanly at the container boundary
		{1, 1, 1, 1}, // obj 2 drained empty; obj 1 finishes FIFO
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order %v, want %v", got, want)
	}
	if s.pendBytes != 0 {
		t.Fatalf("pendBytes = %d after a full drain", s.pendBytes)
	}
}

// TestSchedDrainByteSplit pins the container byte cap: a drain splits before
// exceeding the limit, and a single oversized item still ships alone.
func TestSchedDrainByteSplit(t *testing.T) {
	s := newSched(SchedPolicy{}, false)
	s.enqueue(item(1, 60))
	s.enqueue(item(1, 60))
	s.enqueue(item(1, 500)) // alone: larger than the whole limit
	s.enqueue(item(1, 10))
	var sizes []int
	for s.pendN > 0 {
		items := s.drainChunk(0, 128)
		total := 0
		for _, it := range items {
			total += it.wire
		}
		sizes = append(sizes, total)
	}
	if want := []int{120, 500, 10}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("container sizes %v, want %v", sizes, want)
	}
}

// TestSchedOneObjectArrivalOrder pins the single-object drain: with one
// object the round-robin has nothing to interleave, so under any weight the
// frames leave in arrival order, in one container when no chunk limit
// applies, and across containers when one does.
func TestSchedOneObjectArrivalOrder(t *testing.T) {
	for _, pol := range []SchedPolicy{{}, {Weights: map[ObjID]int{7: 3}}} {
		s := newSched(pol, false)
		for i := 0; i < 5; i++ {
			s.enqueue(item(7, 10+i))
		}
		var wires []int
		for _, it := range s.drainChunk(0, 0) {
			wires = append(wires, it.wire)
		}
		if want := []int{10, 11, 12, 13, 14}; !reflect.DeepEqual(wires, want) {
			t.Fatalf("%+v: drain order %v, want arrival order %v", pol, wires, want)
		}
		if s.pendN != 0 || s.pendBytes != 0 {
			t.Fatalf("%+v: pendN = %d, pendBytes = %d after a full drain", pol, s.pendN, s.pendBytes)
		}
		for i := 0; i < 5; i++ {
			s.enqueue(item(7, 20+i))
		}
		wires = wires[:0]
		for s.pendN > 0 {
			for _, it := range s.drainChunk(2, 0) {
				wires = append(wires, it.wire)
			}
		}
		if want := []int{20, 21, 22, 23, 24}; !reflect.DeepEqual(wires, want) {
			t.Fatalf("%+v: chunked drain order %v, want arrival order %v", pol, wires, want)
		}
	}
}

// schedPair spins up a 2-node unix mesh: node 0 batched + scheduled with the
// given policies, node 1 a plain receiver.
func schedPair(t *testing.T, bp BatchPolicy, sp SchedPolicy) (sender, receiver *Stream) {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	errs := make(chan error, 2)
	go func() {
		var err error
		sender, err = Listen(0, addrs, WithBatching(bp), WithScheduler(sp))
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
	return sender, receiver
}

// TestStreamSchedulerBalance drives mixed-weight traffic through a forced
// flush and a Close drain and checks the two balance invariants on both
// endpoints: Σ_obj ObjIO frames == per-peer totals, and the scheduler ledger
// (Queued == Drained + Depth per object, Σ_obj Queued == FramesQueued). Per
// container, the chunked drain must still deliver each object's frames in
// FIFO order.
func TestStreamSchedulerBalance(t *testing.T) {
	sender, receiver := schedPair(t,
		BatchPolicy{MaxFrames: 100},
		SchedPolicy{Weights: map[ObjID]int{1: 1, 2: 4}, ChunkFrames: 2},
	)
	defer receiver.Close()
	send := func(obj ObjID, mid model.MsgID) {
		t.Helper()
		if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: obj, MID: mid, From: 0, Payload: []byte{byte(obj), byte(mid)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		send(1, model.MsgID(i+1))
		send(2, model.MsgID(i+1))
	}
	if err := sender.Flush(); err != nil { // forced flush of the mixed backlog
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		send(1, model.MsgID(i+1))
	}
	if err := sender.Close(); err != nil { // close drain
		t.Fatal(err)
	}

	st := sender.Stats()
	if st.FramesQueued != 13 {
		t.Fatalf("FramesQueued = %d, want 13", st.FramesQueued)
	}
	if st.Flushes.Explicit != 1 || st.Flushes.Close != 1 || st.Flushes.Total() != 2 {
		t.Fatalf("flushes %+v, want exactly one explicit and one close", st.Flushes)
	}
	// 10 frames at chunk 2 = 5 containers, then 3 frames = 2 containers.
	if st.Sent[1].Frames != 13 || st.Sent[1].Batches != 7 {
		t.Fatalf("sent %+v, want 13 frames in 7 containers", st.Sent[1])
	}
	sum := 0
	for _, io := range st.Objects {
		sum += io.SentFrames
	}
	if total := st.TotalSent().Frames; sum != total {
		t.Fatalf("Σ_obj sent frames %d != per-peer total %d", sum, total)
	}
	if err := st.SchedBalance(); err != nil {
		t.Fatal(err)
	}
	for _, obj := range []ObjID{1, 2} {
		o := st.Sched.Objects[obj]
		if o == nil || o.Depth != 0 || o.Drained != o.Queued {
			t.Fatalf("object %d ledger not drained: %+v", obj, o)
		}
	}

	// The receiver sees every frame, FIFO within each object.
	lastMID := map[ObjID]model.MsgID{}
	for i := 0; i < 13; i++ {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
		}
		if f.MID <= lastMID[f.Obj] {
			t.Fatalf("object %d delivered out of FIFO order: mid %d after %d", f.Obj, f.MID, lastMID[f.Obj])
		}
		lastMID[f.Obj] = f.MID
	}
	rt := receiver.Stats()
	rsum := 0
	for _, io := range rt.Objects {
		rsum += io.RecvFrames
	}
	if total := rt.TotalRecv().Frames; rsum != total || total != 13 {
		t.Fatalf("receiver Σ_obj %d / total %d, want 13/13", rsum, total)
	}
	if err := rt.SchedBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamQuietDeadlineOverride is the starvation scenario at unit scale:
// a chatty object batches under a shared policy with no delay trigger, and a
// quiet object's per-object MaxDelay override must push its frame onto the
// wire on its own — without flushing the chatty backlog.
func TestStreamQuietDeadlineOverride(t *testing.T) {
	const chatty, quiet = ObjID(1), ObjID(2)
	sender, receiver := schedPair(t,
		BatchPolicy{MaxFrames: 1000},
		SchedPolicy{
			Weights:  map[ObjID]int{chatty: 1, quiet: 1},
			MaxDelay: map[ObjID]time.Duration{quiet: 15 * time.Millisecond},
		},
	)
	defer sender.Close()
	defer receiver.Close()
	for i := 0; i < 3; i++ {
		if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: chatty, MID: model.MsgID(i + 1), From: 0, Payload: []byte("c")}); err != nil {
			t.Fatal(err)
		}
	}
	if st := sender.Stats(); st.Flushes.Total() != 0 || st.Sched.Objects[chatty].Depth != 3 {
		t.Fatalf("chatty backlog flushed prematurely: %+v", st.Flushes)
	}
	if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: quiet, MID: 1, From: 0, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	// The quiet deadline (15ms) must fire and drain the quiet queue alone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sender.Stats()
		q := st.Sched.Objects[quiet]
		if q != nil && q.Depth == 0 && q.DeadlineFlushes == 1 {
			if c := st.Sched.Objects[chatty]; c.Depth != 3 {
				t.Fatalf("deadline flush drained the chatty backlog too: depth %d", c.Depth)
			}
			if st.Flushes.Delay != 1 || st.Flushes.Total() != 1 {
				t.Fatalf("flushes %+v, want exactly one delay flush", st.Flushes)
			}
			if q.DelaySamples != 1 || q.DelayMax < 10*time.Millisecond {
				t.Fatalf("quiet delay sample off: %d samples, max %s", q.DelaySamples, q.DelayMax)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quiet deadline never fired: %+v", st.Sched.Objects[quiet])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The quiet frame is on the wire before any chatty one.
	f, ok, err := receiver.Recv(true)
	if err != nil || !ok || f.Obj != quiet {
		t.Fatalf("first delivered frame: obj=%d ok=%v err=%v, want the quiet object", f.Obj, ok, err)
	}
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok || f.Obj != chatty {
			t.Fatalf("chatty frame %d: obj=%d ok=%v err=%v", i, f.Obj, ok, err)
		}
	}
	if err := sender.Stats().SchedBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSharedDeadlineFlushesBacklog pins the shared deadline rule under
// a scheduler: with weights but no per-object override, the first due
// BatchPolicy.MaxDelay deadline flushes the whole backlog — both objects'
// frames leave in exactly one delay flush, in one container.
func TestStreamSharedDeadlineFlushesBacklog(t *testing.T) {
	sender, receiver := schedPair(t,
		BatchPolicy{MaxFrames: 1000, MaxDelay: 100 * time.Millisecond},
		SchedPolicy{Weights: map[ObjID]int{1: 1, 2: 3}},
	)
	defer sender.Close()
	defer receiver.Close()
	objs := []ObjID{1, 2, 1, 2}
	for i, obj := range objs {
		if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: obj, MID: model.MsgID(i + 1), From: 0, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for range objs {
		if _, ok, err := receiver.Recv(true); err != nil || !ok {
			t.Fatalf("recv: ok=%v err=%v", ok, err)
		}
	}
	// The sender settles its ledger just after the write the receiver saw.
	st := sender.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Sent[1].Frames < len(objs) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = sender.Stats()
	}
	if st.Flushes.Delay != 1 || st.Flushes.Total() != 1 {
		t.Fatalf("flushes %+v, want exactly one delay flush", st.Flushes)
	}
	if st.Sent[1].Frames != len(objs) || st.Sent[1].Batches != 1 {
		t.Fatalf("sent %+v, want %d frames in one container", st.Sent[1], len(objs))
	}
	if err := st.SchedBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestMemSchedulerDeterminism runs the same broadcast schedule twice through
// scheduled Mem endpoints and requires byte-identical outcomes: delivery
// order, flush counters, per-peer and per-object IO, and the scheduler
// ledger. The DRR ring order depends only on the broadcast sequence, so a
// scheduled drain is as replayable as the FIFO one.
func TestMemSchedulerDeterminism(t *testing.T) {
	run := func() (order []string, st Stats) {
		m := NewMem(2)
		e := m.Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 4}), WithScheduler(SchedPolicy{Weights: map[ObjID]int{1: 1, 2: 3}, ChunkFrames: 2}))
		r := m.Endpoint(1)
		mids := map[ObjID]model.MsgID{}
		send := func(obj ObjID) {
			mids[obj]++
			if err := e.Broadcast(Frame{Kind: KindEffector, Obj: obj, MID: mids[obj], From: 0, Payload: []byte{byte(obj)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, obj := range []ObjID{1, 2, 2, 1, 2, 1, 1, 2, 2, 1} {
			send(obj)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		send(2)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for {
			f, ok, err := r.Recv(true)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			order = append(order, fmt.Sprintf("%d/%d", f.Obj, f.MID))
		}
		return order, e.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("delivery order diverged:\n%v\n%v", o1, o2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if err := s1.SchedBalance(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, io := range s1.Objects {
		sum += io.SentFrames
	}
	if total := s1.TotalSent().Frames; sum != total || s1.FramesQueued != 11 {
		t.Fatalf("Σ_obj %d / total %d / queued %d, want 11 everywhere", sum, total, s1.FramesQueued)
	}
	// Cap flush at 4 pending (twice), the forced flush of the remaining 2,
	// and the close drain of the last frame.
	if s1.Flushes.Frames != 2 || s1.Flushes.Explicit != 1 || s1.Flushes.Close != 1 {
		t.Fatalf("flushes %+v, want 2 cap + 1 explicit + 1 close", s1.Flushes)
	}
}
