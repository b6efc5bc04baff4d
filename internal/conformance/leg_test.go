package conformance

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/transport"
)

// countingObject is an object whose Prepare calls are counted.
type countingObject struct {
	crdt.Object
	calls *atomic.Int64
}

func (o countingObject) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	o.calls.Add(1)
	return o.Object.Prepare(op, s, origin, mid)
}

// TestTransportItemsRunTheBundle: every transport item replicates the bundle
// it is handed, not the registry algorithm of the same name.
func TestTransportItemsRunTheBundle(t *testing.T) {
	items := []struct {
		name string
		run  func(registry.Algorithm, Config) error
	}{
		{"batched transport convergence", batchedChecks},
		{"socket snapshot catch-up", socketSnapshotChecks},
		{"multi-object socket mesh", multiObjectChecks},
	}
	for _, item := range items {
		var calls atomic.Int64
		alg := registry.Counter()
		inner := alg.New
		alg.New = func() crdt.Object { return countingObject{Object: inner(), calls: &calls} }
		if err := item.run(alg, Config{Seeds: 1, Steps: 10}.withDefaults()); err != nil {
			t.Fatalf("%s: %v", item.name, err)
		}
		if calls.Load() == 0 {
			t.Errorf("%s never called the bundle's Prepare", item.name)
		}
	}
}

// TestRenamedBundleConforms: a correct bundle under a name the registry does
// not know passes the whole battery — no item looks the algorithm under test
// up by name.
func TestRenamedBundleConforms(t *testing.T) {
	alg := registry.Counter()
	alg.Name = "counter-copy"
	rep := Run(alg, Config{Seeds: 1, Steps: 10})
	if err := rep.Err(); err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if len(rep.Checks) != 14 {
		t.Fatalf("checks = %d, want 14", len(rep.Checks))
	}
}

// TestLegCheckRejectsBadRuns: the check every leg owes rejects synthetic runs
// that break each of its invariants, and accepts the run they break.
func TestLegCheckRejectsBadRuns(t *testing.T) {
	l := leg{objs: []legObject{
		{spec: transport.ObjectSpec{ID: 1, Kind: "counter"}},
		{spec: transport.ObjectSpec{ID: 2, Kind: "g-set"}},
	}}
	// good is a balanced run: each node queued one frame per object, sent
	// both to each of its two peers, and received as many.
	good := func() legRun {
		var r legRun
		for id := range r {
			peers := []transport.PeerIO{{Frames: 2}, {Frames: 2}, {Frames: 2}}
			peers[id] = transport.PeerIO{}
			r[id] = nodeRun{
				states: [][]byte{{1}, {2}},
				stats: transport.Stats{
					FramesQueued: 2,
					Sent:         peers,
					Recv:         append([]transport.PeerIO(nil), peers...),
					Objects: map[transport.ObjID]transport.ObjStats{
						1: {SentFrames: 2, RecvFrames: 2},
						2: {SentFrames: 2, RecvFrames: 2},
					},
				},
			}
		}
		return r
	}
	r := good()
	if err := l.check(&r); err != nil {
		t.Fatalf("balanced run rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(r *legRun)
		want   string
	}{
		{"state differs", func(r *legRun) { r[2].states[1] = []byte{9} }, "object 2 (g-set): node 2's canonical state differs"},
		{"ledger off", func(r *legRun) { r[1].stats.Sent[0].Frames++ },
			"node 1: transport: ledger out of balance: Σ_obj sent frames 4 != endpoint total 5"},
	}
	for _, c := range cases {
		r := good()
		c.mutate(&r)
		err := l.check(&r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
	}
}
