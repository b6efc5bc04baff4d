package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/model"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindEffector, MID: 1, From: 0},
		{Kind: KindEffector, MID: 42, From: 2, Payload: []byte("payload")},
		{Kind: KindEffector, MID: 7, From: 1, Deps: []model.MsgID{3, 1, 2}, Payload: []byte{0xff, 0x00}},
		{Kind: KindDone, MID: 9, From: 3},
		{Kind: KindSnapshot, MID: 100, From: 0, Payload: bytes.Repeat([]byte{0xab}, 300)},
	}
	for _, f := range frames {
		wire := EncodeWire(f)
		got, err := DecodeWire(wire)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if got.Kind != f.Kind || got.MID != f.MID || got.From != f.From || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mutated frame: sent %+v got %+v", f, got)
		}
		if len(got.Deps) != len(f.Deps) {
			t.Fatalf("round trip lost deps: sent %+v got %+v", f, got)
		}
		// Deps are canonically sorted: re-encoding the decoded frame must be
		// byte-identical even when the original deps were unsorted.
		if !bytes.Equal(EncodeWire(got), wire) {
			t.Fatalf("re-encoding decoded frame is not canonical: %+v", f)
		}
	}
}

// TestFrameAppendSortedDeps checks that strictly sorted deps — every frame a
// Peer builds — encode without a copy or a sort, while unsorted deps still
// encode canonically and leave the caller's slice untouched.
func TestFrameAppendSortedDeps(t *testing.T) {
	sorted := Frame{Kind: KindEffector, MID: 9, From: 1, Deps: []model.MsgID{2, 4, 7}, Payload: []byte("p")}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf = sorted.Append(buf[:0]) }); allocs != 0 {
		t.Fatalf("Append of sorted deps allocated %v times, want 0", allocs)
	}
	unsorted := sorted
	unsorted.Deps = []model.MsgID{7, 2, 4}
	if !bytes.Equal(unsorted.Append(nil), sorted.Append(nil)) {
		t.Fatal("unsorted deps did not encode canonically")
	}
	if unsorted.Deps[0] != 7 {
		t.Fatalf("Append sorted the caller's deps in place: %v", unsorted.Deps)
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	f := Frame{Kind: KindEffector, MID: 5, From: 1, Deps: []model.MsgID{2, 3}, Payload: []byte("hello world")}
	wire := EncodeWire(f)
	for bit := 0; bit < len(wire)*8; bit++ {
		cp := append([]byte(nil), wire...)
		cp[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeWire(cp); err == nil {
			t.Fatalf("bit flip at %d slipped past the checksum envelope", bit)
		}
	}
}

func TestFrameDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"unknown kind":  {99, 1, 0, 0, 0},
		"unsorted deps": {KindEffector, 1, 0, 2, 2, 1, 0},
		"trailing":      append(Frame{Kind: KindDone, MID: 1}.Append(nil), 0xde),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestKindRegistry pins the frame-kind registry: every declared constant is
// registered (Decode validates against the registry, so an unregistered
// constant would be rejected on the wire), names are distinct, and unknown
// kinds stay invalid.
func TestKindRegistry(t *testing.T) {
	declared := []byte{KindEffector, KindSnapshot, KindDone, KindSnapshotRequest}
	if len(declared) != len(kindNames) {
		t.Fatalf("%d declared kind constants but %d registry entries — keep them in lockstep", len(declared), len(kindNames))
	}
	seen := map[string]bool{}
	for _, k := range declared {
		if !KindValid(k) {
			t.Errorf("declared kind %d is not registered", k)
		}
		name := KindName(k)
		if seen[name] {
			t.Errorf("kind name %q registered twice", name)
		}
		seen[name] = true
		// A frame of every registered kind survives the wire.
		f := Frame{Kind: k, MID: 11, From: 1}
		got, err := DecodeWire(EncodeWire(f))
		if err != nil || got.Kind != k {
			t.Errorf("kind %s: round trip got %+v err=%v", name, got, err)
		}
	}
	for _, k := range []byte{0, 5, 99, 255} {
		if KindValid(k) {
			t.Errorf("kind %d should be invalid", k)
		}
		if _, err := Decode(Frame{Kind: k, MID: 1}.Append(nil)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("kind %d: Decode = %v, want ErrCorrupt", k, err)
		}
	}
}

func TestMemEndpointBroadcastRecv(t *testing.T) {
	m := NewMem(3)
	a, b, c := m.Endpoint(0), m.Endpoint(1), m.Endpoint(2)
	if err := a.Broadcast(Frame{Kind: KindEffector, MID: 1, From: 0, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 2 {
		t.Fatalf("pending = %d, want one copy per peer", m.Pending())
	}
	for _, ep := range []Transport{b, c} {
		f, ok, err := ep.Recv(false)
		if err != nil || !ok {
			t.Fatalf("recv at %s: ok=%v err=%v", ep.Self(), ok, err)
		}
		if f.MID != 1 || f.From != 0 || string(f.Payload) != "x" {
			t.Fatalf("recv at %s got %+v", ep.Self(), f)
		}
	}
	// Drained: non-blocking and blocking Recv both report no frame (the
	// blocking form returns rather than spinning — Mem is single-threaded).
	if _, ok, err := b.Recv(false); ok || err != nil {
		t.Fatalf("drained recv: ok=%v err=%v", ok, err)
	}
	if _, ok, err := b.Recv(true); ok || err != nil {
		t.Fatalf("drained blocking recv: ok=%v err=%v", ok, err)
	}
}

func TestMemEndpointRecvOrdersByArrival(t *testing.T) {
	m := NewMem(2)
	// Queue mid 2 arriving before mid 1: Recv must honour arrival ticks, and
	// a blocking Recv must advance the virtual clock to reach them.
	m.Put(1, &Queued{Frame: Frame{Kind: KindEffector, MID: 2, From: 0}, Copies: 1, ReadyAt: 3})
	m.Put(1, &Queued{Frame: Frame{Kind: KindEffector, MID: 1, From: 0}, Copies: 1, ReadyAt: 8})
	ep := m.Endpoint(1)
	if _, ok, _ := ep.Recv(false); ok {
		t.Fatal("recv before any arrival tick")
	}
	f1, ok, err := ep.Recv(true)
	if err != nil || !ok || f1.MID != 2 {
		t.Fatalf("first recv = %+v ok=%v err=%v, want mid 2", f1, ok, err)
	}
	if m.Now() != 3 {
		t.Fatalf("clock advanced to %d, want 3", m.Now())
	}
	f2, ok, err := ep.Recv(true)
	if err != nil || !ok || f2.MID != 1 {
		t.Fatalf("second recv = %+v ok=%v err=%v, want mid 1", f2, ok, err)
	}
	if m.Now() != 8 {
		t.Fatalf("clock advanced to %d, want 8", m.Now())
	}
}

func TestMemPartitionGatesEndpoint(t *testing.T) {
	m := NewMem(2)
	m.Endpoint(0).Broadcast(Frame{Kind: KindEffector, MID: 1, From: 0, Payload: []byte("abcd")})
	m.SetPartition([]int{0, 1})
	if got := m.InFlightBytesAcross(); got != 4 {
		t.Fatalf("in-flight across the cut = %dB, want 4", got)
	}
	if _, ok, _ := m.Endpoint(1).Recv(false); ok {
		t.Fatal("recv across a severed link")
	}
	m.Heal()
	if got := m.InFlightBytesAcross(); got != 0 {
		t.Fatalf("in-flight across after heal = %dB, want 0", got)
	}
	if f, ok, _ := m.Endpoint(1).Recv(false); !ok || f.MID != 1 {
		t.Fatalf("recv after heal = %+v ok=%v", f, ok)
	}
}

func TestMemCloneIsolation(t *testing.T) {
	m := NewMem(2)
	m.Put(1, &Queued{Frame: Frame{Kind: KindEffector, MID: 1, From: 0}, Copies: 2, ReadyAt: 0})
	cp := m.Clone()
	// Consuming one copy in the clone replaces the entry copy-on-write; the
	// original's copy count must be untouched.
	cp.Take(1, 1)
	if q, _ := m.Get(1, 1); q.Copies != 2 {
		t.Fatalf("original copies = %d after clone consumed one, want 2", q.Copies)
	}
	if q, _ := cp.Get(1, 1); q.Copies != 1 {
		t.Fatalf("clone copies = %d, want 1", q.Copies)
	}
}
