package transport_test

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/transport"
)

// FuzzSnapshotInstall throws arbitrary bytes at the snapshot install path: a
// catch-up-awaiting peer handles a KindSnapshot frame whose payload is the
// fuzz input. Whatever the bytes, the peer must never panic, any rejection
// must wrap codec.ErrCorrupt (the corrupt fallback — the peer stays usable
// and converges by full replay), and the catch-up must resolve either way.
func FuzzSnapshotInstall(f *testing.F) {
	valid := transport.EncodeSnapshot(sampleSnapshot(f))
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// A snapshot whose covered set and suffix overlap on purpose.
	overlap := sampleSnapshot(f)
	overlap.Covered = append(overlap.Covered, overlap.Suffix[0].MID)
	f.Add(transport.EncodeSnapshot(overlap))
	// Object-ID-bearing seeds: suffix frames scoped to another object must be
	// rejected by the object-0 replica under test (post-install, so the stats
	// stay Installed-without-FellBack), and a mixed suffix fails on the first
	// foreign frame.
	foreign := sampleSnapshot(f)
	for i := range foreign.Suffix {
		foreign.Suffix[i].Obj = 2
	}
	f.Add(transport.EncodeSnapshot(foreign))
	mixed := sampleSnapshot(f)
	mixed.Suffix[1].Obj = 7
	f.Add(transport.EncodeSnapshot(mixed))

	alg, ok := registry.ByName("rga")
	if !ok {
		f.Fatal("rga not registered")
	}
	// A response that genuinely installs: the algorithm's own initial state.
	f.Add(transport.EncodeSnapshot(transport.Snapshot{State: alg.New().Init().AppendBinary(nil)}))
	// An installable state whose suffix frame is scoped to a foreign object:
	// the install succeeds, then the suffix is rejected post-install — the
	// path where Installed stays true while the handler errors.
	f.Add(transport.EncodeSnapshot(transport.Snapshot{
		State: alg.New().Init().AppendBinary(nil),
		Suffix: []transport.Frame{{
			Kind: transport.KindEffector, Obj: 2, MID: 3, From: 0, Payload: []byte("eff"),
		}},
	}))
	// Covered mid 0 names no origin: installing it must leave the causal
	// frontier alone.
	f.Add(transport.EncodeSnapshot(transport.Snapshot{
		Covered: []model.MsgID{0, 4},
		State:   alg.New().Init().AppendBinary(nil),
	}))
	// Suffix effectors Handle would refuse as routing damage: a mid that
	// names no origin, and a sender outside the 2-node group.
	for _, bad := range []transport.Frame{
		{Kind: transport.KindEffector, MID: 0, From: 0, Payload: []byte("eff")},
		{Kind: transport.KindEffector, MID: 3, From: 2, Payload: []byte("eff")},
	} {
		f.Add(transport.EncodeSnapshot(transport.Snapshot{
			State:  alg.New().Init().AppendBinary(nil),
			Suffix: []transport.Frame{bad},
		}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := transport.NewMem(2)
		p := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), alg.NeedsCausal,
			transport.WithCatchUp(alg.DecodeState))
		if err := p.CatchUp(); err != nil {
			t.Fatal(err)
		}
		err := p.Handle(transport.Frame{Kind: transport.KindSnapshot, MID: 3, From: 0, Payload: data})
		if err != nil && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("rejection does not wrap codec.ErrCorrupt: %v", err)
		}
		if !p.CaughtUp() {
			t.Fatal("catch-up unresolved after a response (neither install nor fallback)")
		}
		// A rejection resolved exactly one way: the pre-install fallback, or a
		// post-install suffix frame whose payload the decoder refused.
		st := p.SnapshotStats()
		if err != nil && st.Installed == st.FellBack {
			t.Fatalf("rejected response left inconsistent stats: %+v", st)
		}
		// The replica must stay usable whichever way it resolved.
		_ = p.CanonicalState()
	})
}
