package proofmethod

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestCheckRejectsNegativeCounts: a negative count is an error, not a
// report whose obligations pass because no execution was sampled.
func TestCheckRejectsNegativeCounts(t *testing.T) {
	for _, cfg := range []Config{{Seeds: -1}, {Steps: -1}} {
		rep := Check(registry.Counter(), cfg)
		if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("%+v: err = %v, want a refusal of the negative count", cfg, err)
		}
	}
}

// TestAllUCRAlgorithmsPass is the paper's Sec 8 "Examples" result: all seven
// UCR algorithms discharge the CRDT-TS obligations.
func TestAllUCRAlgorithmsPass(t *testing.T) {
	for _, alg := range registry.UCR() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			rep := Check(alg, Config{Seeds: 4, Steps: 30})
			if err := rep.Err(); err != nil {
				t.Fatalf("%v\n%s", err, rep)
			}
			if len(rep.Obligations) != 7 {
				t.Fatalf("expected 7 obligations, got %d", len(rep.Obligations))
			}
		})
	}
}

// TestCheckAllCoversSeven: the driver enumerates exactly the seven UCR
// algorithms the paper lists.
func TestCheckAllCoversSeven(t *testing.T) {
	reps := CheckAll(Config{Seeds: 1, Steps: 10})
	if len(reps) != 7 {
		t.Fatalf("CheckAll returned %d reports, want 7", len(reps))
	}
	names := map[string]bool{}
	for _, r := range reps {
		names[r.Algorithm] = true
		if err := r.Err(); err != nil {
			t.Error(err)
		}
	}
	for _, want := range []string{"counter", "g-set", "lww-register", "lww-set", "2p-set", "cseq", "rga"} {
		if !names[want] {
			t.Errorf("missing algorithm %q", want)
		}
	}
}

// TestXWinsRejected: CRDT-TS does not apply to the X-wins sets.
func TestXWinsRejected(t *testing.T) {
	rep := Check(registry.AWSet(), Config{})
	if rep.Err() == nil {
		t.Fatal("expected applicability error for aw-set")
	}
}

func TestReportString(t *testing.T) {
	rep := Check(registry.Counter(), Config{Seeds: 1, Steps: 10})
	s := rep.String()
	if !strings.Contains(s, "counter") || !strings.Contains(s, "commutative effectors") {
		t.Errorf("report rendering: %q", s)
	}
}

// ---------------------------------------------------------------------------
// Negative controls: deliberately broken algorithms must fail the method.
// ---------------------------------------------------------------------------

// nonCommutingSet breaks obligation 1: its remove effector deletes whatever
// is present at the receiving node.
type nonCommutingSet struct{ registry.Algorithm }

type ncState struct{ E *model.ValueSet }

func (s ncState) AppendBinary(b []byte) []byte { return codec.AppendValueSet(b, s.E) }

type ncAdd struct{ E model.Value }

func (d ncAdd) Apply(s crdt.State) crdt.State {
	out := s.(ncState).E.Clone()
	out.Add(d.E)
	return ncState{E: out}
}
func (d ncAdd) String() string { return "NCAdd(" + d.E.String() + ")" }

func (d ncAdd) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type ncRmv struct{ E model.Value }

func (d ncRmv) Apply(s crdt.State) crdt.State {
	out := s.(ncState).E.Clone()
	out.Remove(d.E)
	return ncState{E: out}
}
func (d ncRmv) String() string { return "NCRmv(" + d.E.String() + ")" }

func (d ncRmv) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type ncObject struct{}

func (ncObject) Name() string        { return "nc-set" }
func (ncObject) Init() crdt.State    { return ncState{E: model.NewValueSet()} }
func (ncObject) Ops() []model.OpName { return []model.OpName{spec.OpAdd, spec.OpRemove, spec.OpRead} }

func (ncObject) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), ncAdd{E: op.Arg}, nil
	case spec.OpRemove:
		return model.Nil(), ncRmv{E: op.Arg}, nil
	case spec.OpRead:
		return ncAbs(s), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

func ncAbs(s crdt.State) model.Value { return model.List(s.(ncState).E.Elems()...) }

func ncAlgorithm() registry.Algorithm {
	return registry.Algorithm{
		Name:    "nc-set",
		New:     func() crdt.Object { return ncObject{} },
		Abs:     ncAbs,
		Spec:    spec.SetSpec{},
		TSOrder: func(d1, d2 crdt.Effector) bool { return false },
		View:    func(s crdt.State) []crdt.Effector { return nil },
		GenOp: func(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, pool []model.Value, _ func() model.Value) model.Op {
			e := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				return model.Op{Name: spec.OpRead}
			case 1:
				return model.Op{Name: spec.OpAdd, Arg: e}
			default:
				return model.Op{Name: spec.OpRemove, Arg: e}
			}
		},
	}
}

func TestNonCommutingSetFails(t *testing.T) {
	rep := Check(ncAlgorithm(), Config{Seeds: 4, Steps: 30})
	err := rep.Err()
	if err == nil {
		t.Fatalf("broken set passed the proof method:\n%s", rep)
	}
}

// wrongReturnCounter breaks obligation 2: reads return one more than the
// counter value.
type wrongReturnCounter struct{ inner crdt.Object }

func (w wrongReturnCounter) Name() string        { return "wrong-counter" }
func (w wrongReturnCounter) Init() crdt.State    { return w.inner.Init() }
func (w wrongReturnCounter) Ops() []model.OpName { return w.inner.Ops() }

func (w wrongReturnCounter) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	ret, eff, err := w.inner.Prepare(op, s, origin, mid)
	if err == nil && op.Name == spec.OpRead {
		n, _ := ret.AsInt()
		ret = model.Int(n + 1)
	}
	return ret, eff, err
}

func TestWrongReturnValueFails(t *testing.T) {
	base := registry.Counter()
	alg := base
	alg.Name = "wrong-counter"
	alg.New = func() crdt.Object { return wrongReturnCounter{inner: base.New()} }
	rep := Check(alg, Config{Seeds: 2, Steps: 20})
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "same return value") {
		t.Fatalf("err = %v, want same-return-value violation", err)
	}
}

// TestReversedTSOrderFails breaks the well-formedness/state-correspondence
// side: the LWW register with an inverted ↣ claims the SMALLER stamp wins,
// so fresh effectors become invalid and correspondence fails.
func TestReversedTSOrderFails(t *testing.T) {
	base := registry.LWWRegister()
	alg := base
	alg.Name = "lww-register-reversed"
	alg.TSOrder = func(d1, d2 crdt.Effector) bool { return base.TSOrder(d2, d1) }
	rep := Check(alg, Config{Seeds: 4, Steps: 30})
	if rep.Err() == nil {
		t.Fatalf("reversed ↣ passed the proof method:\n%s", rep)
	}
}

// TestLyingViewFails: a view function reporting effectors that were never
// applied violates V-soundness.
func TestLyingViewFails(t *testing.T) {
	base := registry.GSet()
	alg := base
	alg.Name = "g-set-lying-view"
	alg.View = func(s crdt.State) []crdt.Effector {
		return []crdt.Effector{ncAdd{E: model.Str("phantom")}}
	}
	rep := Check(alg, Config{Seeds: 1, Steps: 10})
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "V sound") {
		t.Fatalf("err = %v, want V-soundness violation", err)
	}
}
