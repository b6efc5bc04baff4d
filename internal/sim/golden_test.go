package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdts/registry"
)

// goldenWorkloads are the schedules TestWorkloadGolden pins: an undrained
// run, a drained one, one losing effectors for good and one under link
// faults (loss, duplication, reordering), each with and without causal
// delivery.
var goldenWorkloads = []struct {
	name string
	w    Workload
}{
	{"plain", Workload{Steps: 40}},
	{"drain", Workload{Steps: 60, FinalDrain: true}},
	{"drop", Workload{Steps: 60, DropProb: 0.2, FinalDrain: true}},
	{"link", Workload{Steps: 60, FinalDrain: true,
		Link: LinkFaults{Loss: 0.1, Dup: 0.2, MaxDup: 2, DelayMax: 3}}},
}

// goldenDigests are the SHA-256 digests TestWorkloadGolden computes, one
// per registry algorithm.
var goldenDigests = map[string]string{
	"counter":      "e18617c4e7183e52ce7d50206d201c8935d2f6fe1e47d811ad02e35e6a6e6499",
	"g-set":        "aea8b36eea46c301430a0002d5b01a98f5e97a7136cb1ba42fbd548dbcee206d",
	"lww-register": "7e2310f0e7399ef15c157490b161dc8213ab4c1bc7484d7809cfd85797aa9a31",
	"lww-set":      "deeed29d568fa835b5c77b517b5cac6da359a5f4fab69404b1f57cf14c1073ed",
	"2p-set":       "bf75b8b2b5bc39c11f11de610ff9783cd8546d0440f609433311ebc450716105",
	"cseq":         "077f8c78047fcea9627e77854abf24b320396421c74e3019a56155952c205203",
	"rga":          "ccbe739a94ef6ef8a5ea871d58236f7d063e1b67883dfb23cc00db63e5f41abe",
	"aw-set":       "f13c062315eff0a26e6939e0904f3d8984e8f2caf1feb63e89edd320fd8c9e04",
	"rw-set":       "55076d5f54316d5690fb28a01e9fb5c3b88fa6799cc667964658c982d7942037",
}

// TestWorkloadGolden pins the scheduler: for every registry algorithm it
// hashes, over goldenWorkloads × causal or not × three seeds, every trace
// event's rendering and effector bytes, the fault counters and the final
// cluster's canonical encoding (replica states, queued copies, causal
// contexts). Any change to which effector DeliverRandom picks, or to how
// the network queues, drains or orders copies, moves a digest.
func TestWorkloadGolden(t *testing.T) {
	for _, alg := range registry.All() {
		h := sha256.New()
		for _, g := range goldenWorkloads {
			for _, causal := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					w := g.w
					w.Object, w.Abs, w.Gen, w.Causal = alg.New(), alg.Abs, GenFunc(alg.GenOp), causal
					hashRun(h, fmt.Sprintf("%s/causal=%v/seed=%d", g.name, causal, seed), w.Run(seed))
				}
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), goldenDigests[alg.Name]; got != want {
			t.Errorf("%s: digest %s, want %s", alg.Name, got, want)
		}
	}
}

func hashRun(h hash.Hash, name string, c *Cluster) {
	b := codec.AppendString(nil, name)
	for _, e := range c.Trace() {
		b = codec.AppendString(b, e.String())
		b = codec.AppendBytes(b, e.Eff.AppendBinary(nil))
	}
	b = codec.AppendString(b, fmt.Sprintf("%+v", c.FaultStats()))
	h.Write(c.AppendBinary(b))
}
