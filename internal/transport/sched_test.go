package transport

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// TestSchedDrainByteSplit pins the container byte limit: a flush splits the
// queue before a container would exceed the limit, and a single oversized
// frame still ships alone.
func TestSchedDrainByteSplit(t *testing.T) {
	var items []sendItem
	for _, wire := range []int{60, 60, 500, 10} {
		items = append(items, sendItem{frame: Frame{Obj: 1}, wire: wire})
	}
	var sizes []int
	for len(items) > 0 {
		n := containerLen(items, 128)
		total := 0
		for _, it := range items[:n] {
			total += it.wire
		}
		sizes = append(sizes, total)
		items = items[n:]
	}
	if want := []int{120, 500, 10}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("container sizes %v, want %v", sizes, want)
	}
}

// TestSchedOneObjectArrivalOrder pins the drain order of one object's
// frames, the per-object FIFO the replica layer relies on: the queue hands
// them to the wire in arrival order whether they fit one container or the
// byte limit splits them, and a reset leaves nothing pending.
func TestSchedOneObjectArrivalOrder(t *testing.T) {
	var q sendQueue
	for _, split := range []bool{false, true} {
		var want []model.MsgID
		for i := 0; i < 5; i++ {
			q.push(Frame{Kind: KindEffector, Obj: 7, MID: model.MsgID(i + 1), Payload: make([]byte, i)})
			want = append(want, model.MsgID(i+1))
		}
		limit := maxWireFrame
		if split {
			limit = 2 * q.items[len(q.items)-1].wire
		}
		var got []model.MsgID
		containers := 0
		for items := q.items; len(items) > 0; containers++ {
			n := containerLen(items, limit)
			for _, it := range items[:n] {
				got = append(got, it.frame.MID)
			}
			items = items[n:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split=%v: drain order %v, want arrival order %v", split, got, want)
		}
		if split != (containers > 1) {
			t.Fatalf("split=%v: %d containers", split, containers)
		}
		q.reset()
		if len(q.items) != 0 {
			t.Fatalf("split=%v: %d items pending after a reset", split, len(q.items))
		}
	}
}

// schedPair spins up a 2-node unix mesh: node 0 batched under bp, node 1 a
// plain receiver.
func schedPair(t *testing.T, bp BatchPolicy) (sender, receiver *Stream) {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	errs := make(chan error, 2)
	go func() {
		var err error
		sender, err = Listen(0, addrs, WithBatching(bp))
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

// TestStreamSchedulerBalance drives two objects' interleaved traffic through
// a forced flush and a Close drain and checks the ledger on both endpoints:
// SchedBalance holds, and every object's frames were all sent. Each flush
// writes its whole batch as one container, and the receiver sees the frames
// in broadcast order.
func TestStreamSchedulerBalance(t *testing.T) {
	sender, receiver := schedPair(t, BatchPolicy{MaxFrames: 100})
	defer receiver.Close()
	var order []string
	send := func(obj ObjID, mid model.MsgID) {
		t.Helper()
		if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: obj, MID: mid, From: 0, Payload: []byte{byte(obj), byte(mid)}}); err != nil {
			t.Fatal(err)
		}
		order = append(order, fmt.Sprintf("%d/%d", obj, mid))
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
	if st.Sent[1].Frames != 13 || st.Sent[1].Batches != 2 {
		t.Fatalf("sent %+v, want 13 frames in 2 containers", st.Sent[1])
	}
	if err := st.SchedBalance(); err != nil {
		t.Fatal(err)
	}
	for obj, sent := range map[ObjID]int{1: 8, 2: 5} {
		if o := st.Objects[obj]; o.SentFrames != sent {
			t.Fatalf("object %d sent %d frames, want %d", obj, o.SentFrames, sent)
		}
	}

	for i, want := range order {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
		}
		if got := fmt.Sprintf("%d/%d", f.Obj, f.MID); got != want {
			t.Fatalf("frame %d delivered as %s, want %s: the wire must keep broadcast order", i, got, want)
		}
	}
	rt := receiver.Stats()
	if total := rt.TotalRecv().Frames; total != 13 {
		t.Fatalf("receiver got %d frames, want 13", total)
	}
	if err := rt.SchedBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSharedDeadlineFlushesBacklog pins the deadline rule: the pending
// batch's first frame arms the one BatchPolicy.MaxDelay deadline, which
// flushes the whole backlog — both objects' frames leave in exactly one delay
// flush, in one container, in broadcast order.
func TestStreamSharedDeadlineFlushesBacklog(t *testing.T) {
	sender, receiver := schedPair(t, BatchPolicy{MaxFrames: 1000, MaxDelay: 100 * time.Millisecond})
	defer sender.Close()
	defer receiver.Close()
	objs := []ObjID{1, 2, 1, 2}
	for i, obj := range objs {
		if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: obj, MID: model.MsgID(i + 1), From: 0, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, obj := range objs {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv: ok=%v err=%v", ok, err)
		}
		if f.Obj != obj || f.MID != model.MsgID(i+1) {
			t.Fatalf("frame %d delivered as %d/%d, want %d/%d", i, f.Obj, f.MID, obj, i+1)
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

// TestStreamConcurrentBroadcastDeadline broadcasts from several goroutines
// while cap flushes and the flush deadline race each other: every frame
// reaches the receiver once, each object's frames in broadcast order, and
// the ledger balances. Run it under -race.
func TestStreamConcurrentBroadcastDeadline(t *testing.T) {
	sender, receiver := schedPair(t, BatchPolicy{MaxFrames: 7, MaxDelay: time.Millisecond})
	defer sender.Close()
	defer receiver.Close()
	const senders, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := sender.Broadcast(Frame{Kind: KindEffector, Obj: ObjID(g), MID: model.MsgID(i), From: 0}); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					time.Sleep(2 * time.Millisecond) // let the deadline fire mid-stream
				}
			}
		}()
	}
	wg.Wait()
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	last := map[ObjID]model.MsgID{}
	for n := 0; n < senders*each; n++ {
		f, ok, err := receiver.Recv(true)
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", n, ok, err)
		}
		if f.MID != last[f.Obj]+1 {
			t.Fatalf("object %d delivered mid %d after %d", f.Obj, f.MID, last[f.Obj])
		}
		last[f.Obj] = f.MID
	}
	st := sender.Stats()
	if st.Sent[1].Frames != senders*each {
		t.Fatalf("sent %d frames, want %d", st.Sent[1].Frames, senders*each)
	}
	if err := st.SchedBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestMemSchedulerDeterminism runs the same broadcast schedule twice through
// batched Mem endpoints and requires byte-identical outcomes: delivery
// order, flush counters, per-peer and per-object IO, and the send-queue
// ledger. A flush is a pure function of the broadcast sequence, so batched
// runs replay.
func TestMemSchedulerDeterminism(t *testing.T) {
	run := func() (order []string, st Stats) {
		m := NewMem(2)
		e := m.Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 4}))
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
	if total := s1.TotalSent().Frames; total != 11 || s1.FramesQueued != 11 {
		t.Fatalf("sent %d / queued %d, want 11 each", total, s1.FramesQueued)
	}
	// Cap flush at 4 pending (twice), the forced flush of the remaining 2,
	// and the close drain of the last frame.
	if s1.Flushes.Frames != 2 || s1.Flushes.Explicit != 1 || s1.Flushes.Close != 1 {
		t.Fatalf("flushes %+v, want 2 cap + 1 explicit + 1 close", s1.Flushes)
	}
}
