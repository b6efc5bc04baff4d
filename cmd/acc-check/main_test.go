package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/lwwreg"
	"repro/internal/crdts/registry"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	saveNodes = 3
	saveSteps = 8
)

// reversedForOrigin1 is the lww-register bundle with its timestamp order ↣
// reversed on origin 1's writes: the witness then arbitrates some
// conflicting writes against their stamps, so some traces fail ACC, though
// not every one.
func reversedForOrigin1() registry.Algorithm {
	alg := registry.LWWRegister()
	ts := alg.TSOrder
	alg.TSOrder = func(d1, d2 crdt.Effector) bool {
		if w, ok := d1.(lwwreg.WrEff); ok && w.I.Node == 1 {
			return ts(d2, d1)
		}
		return ts(d1, d2)
	}
	return alg
}

// traceOf is the trace check generates for seed.
func traceOf(alg registry.Algorithm, seed int64) trace.Trace {
	w := sim.Workload{
		Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
		Nodes: saveNodes, Steps: saveSteps, Causal: alg.NeedsCausal,
	}
	return w.Run(seed).Trace()
}

// loadSaved reads the schedule check saved at path.
func loadSaved(t *testing.T, path string) sched.Schedule {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSaveKeepsFirstFailure: -save writes the first failing seed's schedule,
// which replays to the same failure, even when seed 1 passes.
func TestSaveKeepsFirstFailure(t *testing.T) {
	bad := reversedForOrigin1()
	first, reason := int64(0), ""
	for seed := int64(1); seed <= 20 && first == 0; seed++ {
		res, err := decide(bad, traceOf(bad, seed), "witness")
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			first, reason = seed, res.Reason
		}
	}
	if first < 2 {
		t.Fatalf("first failing seed %d: the test needs a passing seed 1 and a failure after it", first)
	}
	sv := &saver{path: filepath.Join(t.TempDir(), "failing.json")}
	if failures := check(bad, saveNodes, saveSteps, int(first)+1, "witness", sv); failures == 0 {
		t.Fatal("check reported no failure")
	}
	sv.write()
	s := loadSaved(t, sv.path)
	if code := replay(bad, s, "witness"); code != 1 {
		t.Fatalf("replay of the saved schedule exited %d, want 1 (seed %d fails: %s)", code, first, reason)
	}
	c, err := s.Replay(bad.New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := decide(bad, c.Trace(), "witness")
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Reason != reason {
		t.Fatalf("saved schedule replays to %+v, want seed %d's failure %q", res, first, reason)
	}
}

// TestSaveKeepsSeed1WhenNothingFails: without a failure, -save writes seed
// 1's schedule.
func TestSaveKeepsSeed1WhenNothingFails(t *testing.T) {
	alg := registry.LWWRegister()
	sv := &saver{path: filepath.Join(t.TempDir(), "first.json")}
	if failures := check(alg, saveNodes, saveSteps, 3, "witness", sv); failures != 0 {
		t.Fatalf("check reported %d failures", failures)
	}
	sv.write()
	s, err := sched.FromTrace(traceOf(alg, 1), saveNodes, alg.NeedsCausal, alg.Name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(sv.path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("saved schedule is not seed 1's (err %v):\n got %s\nwant %s", err, got, want)
	}
}
