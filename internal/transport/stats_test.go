package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// TestBatchPolicyNormalized pins the normalization contract: MaxFrames < 1
// becomes 1 (unbatched), a negative MaxDelay becomes 0 (no timer), and
// already-sane policies pass through untouched — so downstream trigger
// checks may treat zero as "disabled" without re-guarding.
func TestBatchPolicyNormalized(t *testing.T) {
	cases := []struct {
		name     string
		in, want BatchPolicy
	}{
		{"zero value", BatchPolicy{}, BatchPolicy{MaxFrames: 1}},
		{"negative frames", BatchPolicy{MaxFrames: -3}, BatchPolicy{MaxFrames: 1}},
		{"zero frames keeps delay", BatchPolicy{MaxDelay: time.Millisecond}, BatchPolicy{MaxFrames: 1, MaxDelay: time.Millisecond}},
		{"negative delay", BatchPolicy{MaxFrames: 8, MaxDelay: -time.Second}, BatchPolicy{MaxFrames: 8}},
		{"all negative", BatchPolicy{MaxFrames: -1, MaxDelay: -1}, BatchPolicy{MaxFrames: 1}},
		{
			"sane untouched",
			BatchPolicy{MaxFrames: 32, MaxDelay: 5 * time.Millisecond},
			BatchPolicy{MaxFrames: 32, MaxDelay: 5 * time.Millisecond},
		},
	}
	for _, c := range cases {
		if got := c.in.normalized(); got != c.want {
			t.Errorf("%s: normalized() = %+v, want %+v", c.name, got, c.want)
		}
	}
	// Normalization is idempotent.
	for _, c := range cases {
		once := c.in.normalized()
		if twice := once.normalized(); twice != once {
			t.Errorf("%s: normalization not idempotent: %+v then %+v", c.name, once, twice)
		}
	}
}

// TestSchedBalance hands SchedBalance a balanced ledger, then breaks one
// split per case: each must be rejected with an error naming the split.
func TestSchedBalance(t *testing.T) {
	// Four frames sent to each of two peers (three of object 1, one of
	// object 2), four received from them.
	good := func() Stats {
		return Stats{
			Sent: []PeerIO{{}, {Frames: 4, Batches: 3}, {Frames: 4, Batches: 3}},
			Recv: []PeerIO{{}, {Frames: 3, Batches: 2}, {Frames: 1, Batches: 1}},
			Objects: map[ObjID]ObjStats{
				1: {SentFrames: 6, RecvFrames: 3},
				2: {SentFrames: 2, RecvFrames: 1},
			},
		}
	}
	if err := good().SchedBalance(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	obj := func(s *Stats, id ObjID, f func(*ObjStats)) {
		o := s.Objects[id]
		f(&o)
		s.Objects[id] = o
	}
	cases := []struct {
		name   string
		mutate func(*Stats)
		want   string
	}{
		{"sent frames", func(s *Stats) { s.Sent[2].Frames++ }, "Σ_obj sent frames 8 != endpoint total 9"},
		{"received frames", func(s *Stats) { obj(s, 2, func(o *ObjStats) { o.RecvFrames++ }) }, "Σ_obj received frames 5 != endpoint total 4"},
	}
	for _, c := range cases {
		s := good()
		c.mutate(&s)
		if err := s.SchedBalance(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
	}
}

// TestStatsSnapshotIsolated: a Stats() snapshot, from a Stream and from a Mem
// endpoint, is a copy — later traffic does not change it, and writes into it
// do not reach the endpoint's ledger.
func TestStatsSnapshotIsolated(t *testing.T) {
	sender, receiver := schedPair(t, BatchPolicy{MaxFrames: 2})
	defer sender.Close()
	defer receiver.Close()
	ends := []struct {
		name string
		e    Transport
	}{
		{"stream", sender},
		{"mem", NewMem(2).Endpoint(0, WithBatching(BatchPolicy{MaxFrames: 2}))},
	}
	for _, end := range ends {
		mid := model.MsgID(0)
		send := func(n int) {
			for range n {
				mid++
				if err := end.e.Broadcast(Frame{Kind: KindEffector, Obj: 1, MID: mid, From: 0}); err != nil {
					t.Fatal(err)
				}
			}
		}
		send(3) // one cap flush, one frame pending
		snap := end.e.Stats()
		want := fmt.Sprintf("%+v", snap)
		send(4)
		if err := end.e.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", snap); got != want {
			t.Errorf("%s: snapshot changed by later traffic:\n got %s\nwant %s", end.name, got, want)
		}
		snap.Objects[1] = ObjStats{SentFrames: 99}
		snap.Objects[2] = ObjStats{SentFrames: 1}
		snap.Sent[1].Frames = 99
		now := end.e.Stats()
		if err := now.SchedBalance(); err != nil {
			t.Errorf("%s: a write into a snapshot reached the endpoint: %v", end.name, err)
		}
		if o, other := now.Objects[1], len(now.Objects); now.FramesQueued != 7 || o.SentFrames != 7 || other != 1 {
			t.Errorf("%s: %d frames queued, ledger %+v, want 7 queued and object 1 alone with 7 sent", end.name, now.FramesQueued, now.Objects)
		}
	}
}
