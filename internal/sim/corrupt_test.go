package sim

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestWireCodecShipsBytes: with a wire codec installed, every broadcast
// charges its encoded payload once per destination to the totals, and
// delivery decodes back to an effector that applies identically.
func TestWireCodecShipsBytes(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 3, WithWireCodec(alg.DecodeEffector))
	op := model.Op{Name: spec.OpInc, Arg: model.Int(5)}
	_, eff, err := alg.New().Prepare(op, alg.New().Init(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(codec.AppendFrame(nil, eff.AppendBinary(nil)))
	if _, _, err := c.Invoke(0, op); err != nil {
		t.Fatal(err)
	}
	// One broadcast fans out to the two other nodes: one frame copy per link.
	if got, want := c.FaultStats().PayloadBytes, 2*frame; got != want {
		t.Fatalf("PayloadBytes = %d, want two %d-byte frames", got, frame)
	}
	if got := c.FaultStats().PayloadFrames; got != 2 {
		t.Fatalf("PayloadFrames = %d, want 2", got)
	}
	c.DeliverAll()
	if abs, ok := c.Converged(alg.Abs); !ok || !abs.Equal(model.Int(5)) {
		t.Fatalf("converged = %v %s, want 5", ok, abs)
	}
}

// TestWireCodecWithoutOptionIsFree: clusters built without WithWireCodec keep
// the seed-era behaviour — no payloads, zero byte counters.
func TestWireCodecWithoutOptionIsFree(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 2)
	if _, _, err := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if c.FaultStats().PayloadBytes != 0 || c.FaultStats().PayloadFrames != 0 {
		t.Fatal("cluster without a wire codec must not count payload bytes or frames")
	}
}

// TestCorruptionRejectedThenRetransmitted: a certain-corruption plan flips a
// bit in the payload; the decoder must reject the copy with ErrCorruptPayload,
// and the clean retransmission the transport queues must eventually converge
// the cluster.
func TestCorruptionRejectedThenRetransmitted(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 2,
		WithWireCodec(alg.DecodeEffector),
		WithLinkFaults(LinkFaults{Corrupt: 1}, 11))
	if _, mid, err := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(3)}); err != nil {
		t.Fatal(err)
	} else if err := c.Deliver(1, mid); !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("delivering a corrupted copy: err = %v, want ErrCorruptPayload", err)
	}
	st := c.FaultStats()
	if st.Corrupted == 0 || st.CorruptRejected == 0 {
		t.Fatalf("stats = %s, want corruption observed and rejected", st)
	}
	// The retransmission is clean (corruption is drawn at broadcast time), so
	// draining delivers it.
	c.DeliverAll()
	if abs, ok := c.Converged(alg.Abs); !ok || !abs.Equal(model.Int(3)) {
		t.Fatalf("converged = %v %s, want 3 after retransmission", ok, abs)
	}
	if c.FaultStats().CorruptRejected != st.CorruptRejected {
		t.Fatal("retransmitted copy was rejected again; retransmissions must be clean")
	}
}

// TestChaosCorruptionConverges: under a heavy corruption plan every registry
// algorithm reports rejected-corrupt deliveries yet still converges once the
// retransmissions land — and the run replays deterministically.
func TestChaosCorruptionConverges(t *testing.T) {
	plan := FaultPlan{Link: LinkFaults{Corrupt: 0.5, DelayMax: 2}}
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			rejected := false
			for seed := int64(1); seed <= 4; seed++ {
				script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 10, seed, alg.NeedsCausal)
				w := Chaos{
					Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
					Nodes: 3, Seed: seed, Causal: alg.NeedsCausal,
					Decode: alg.DecodeEffector,
				}
				rep, err := w.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Stats.Corrupted != rep.Stats.CorruptRejected {
					t.Fatalf("seed %d: %d corrupted copies but %d rejected — corrupt bytes decoded",
						seed, rep.Stats.Corrupted, rep.Stats.CorruptRejected)
				}
				if rep.Stats.PayloadBytes == 0 {
					t.Fatalf("seed %d: chaos with a codec shipped no bytes", seed)
				}
				rejected = rejected || rep.Stats.CorruptRejected > 0
				if _, ok := rep.Cluster.Converged(alg.Abs); !ok {
					t.Fatalf("seed %d: replicas diverged under corruption", seed)
				}
				rep2, err := w.Run()
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if rep.Stats != rep2.Stats || rep.Ticks != rep2.Ticks {
					t.Fatalf("seed %d: replay stats %s/%d vs %s/%d",
						seed, rep.Stats, rep.Ticks, rep2.Stats, rep2.Ticks)
				}
				if rep.Trace.String() != rep2.Trace.String() {
					t.Fatalf("seed %d: replay traces differ", seed)
				}
			}
			if !rejected {
				t.Fatal("corrupt=0.5 over 4 seeds never rejected a copy — test is vacuous")
			}
		})
	}
}

// TestFingerprintMatchesKeyEquivalence: on the configurations the explorers
// visit, two clusters agree on Fingerprint exactly when they agree on the Key
// debug rendering — the binary encoding distinguishes everything the string
// did.
func TestFingerprintMatchesKeyEquivalence(t *testing.T) {
	alg := registry.AWSet()
	build := func(order []int) *Cluster {
		c := NewCluster(alg.New(), 2, WithCausalDelivery())
		mids := make([]model.MsgID, 0, 2)
		for _, v := range []string{"a", "b"} {
			_, mid, err := c.Invoke(0, model.Op{Name: spec.OpAdd, Arg: model.Str(v)})
			if err != nil {
				t.Fatal(err)
			}
			mids = append(mids, mid)
		}
		for _, i := range order {
			if err := c.Deliver(1, mids[i]); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	full, fullAgain, partial := build([]int{0, 1}), build([]int{0, 1}), build([]int{0})
	if ckey(full) != ckey(fullAgain) || full.Fingerprint(7) != fullAgain.Fingerprint(7) {
		t.Fatal("identical configurations must agree on Key and Fingerprint")
	}
	if ckey(partial) == ckey(full) {
		t.Fatal("distinct configurations collided on Key")
	}
	if partial.Fingerprint(7) == full.Fingerprint(7) {
		t.Fatal("distinct configurations collided on Fingerprint")
	}
	if full.Fingerprint(7) == full.Fingerprint(8) {
		t.Fatal("the script-position tag must feed the fingerprint")
	}
}
