package codec_test

// External battery: the per-algorithm codecs, exercised through the registry
// over real simulator runs (an external test package so the tests can import
// registry and sim without a cycle).

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
)

func allAlgorithms() []registry.Algorithm {
	return append(registry.All(), registry.Extensions()...)
}

// harvest runs a drained scripted cluster for alg and returns the distinct
// state and effector encodings the run reached (states sampled after every
// delivery step via the per-node snapshots, effectors from the trace).
func harvest(t *testing.T, alg registry.Algorithm, seed int64) (states, effs [][]byte) {
	t.Helper()
	const nodes, ops = 3, 8
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
	var opts []sim.Option
	if alg.NeedsCausal {
		opts = append(opts, sim.WithCausalDelivery())
	}
	c := sim.NewCluster(alg.New(), nodes, opts...)
	seenS, seenE := map[string]bool{}, map[string]bool{}
	snap := func() {
		for n := 0; n < nodes; n++ {
			enc := c.StateOf(model.NodeID(n)).AppendBinary(nil)
			if !seenS[string(enc)] {
				seenS[string(enc)] = true
				states = append(states, enc)
			}
		}
	}
	snap()
	for i, so := range script {
		if _, _, err := c.Invoke(so.Node, so.Op); err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
		snap()
		c.DeliverAll()
		snap()
	}
	for _, ev := range c.Trace() {
		enc := ev.Eff.AppendBinary(nil)
		if !seenE[string(enc)] {
			seenE[string(enc)] = true
			effs = append(effs, enc)
		}
	}
	return states, effs
}

// TestAlgorithmCodecsRoundTrip: for every registry algorithm (the paper's
// nine plus the extensions), each state and effector reached by drained runs
// decodes back and re-encodes byte-equal.
func TestAlgorithmCodecsRoundTrip(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				states, effs := harvest(t, alg, seed)
				if len(states) < 2 || len(effs) < 2 {
					t.Fatalf("seed %d: harvest too small (%d states, %d effectors)", seed, len(states), len(effs))
				}
				for _, enc := range states {
					st, err := alg.DecodeState(enc)
					if err != nil {
						t.Fatalf("seed %d: state %x did not decode: %v", seed, enc, err)
					}
					if !bytes.Equal(st.AppendBinary(nil), enc) {
						t.Fatalf("seed %d: state %s re-encoded differently", seed, st.Key())
					}
				}
				for _, enc := range effs {
					eff, err := alg.DecodeEffector(enc)
					if err != nil {
						t.Fatalf("seed %d: effector %x did not decode: %v", seed, enc, err)
					}
					if !bytes.Equal(eff.AppendBinary(nil), enc) {
						t.Fatalf("seed %d: effector %s re-encoded differently", seed, eff)
					}
				}
			}
		})
	}
}

// TestAlgorithmDecodersRejectCorruption: table-driven corruption over every
// algorithm's real encodings — each proper prefix, a trailing junk byte, and
// an unknown effector tag must fail with an error wrapping codec.ErrCorrupt,
// and must never panic. (Proper prefixes are rejectable because every
// encoding is length- or count-prefixed; a bit flip inside the bytes may
// legitimately decode to a different valid object, which is exactly why the
// wire layer adds a checksummed frame on top.)
func TestAlgorithmDecodersRejectCorruption(t *testing.T) {
	mutations := []struct {
		name string
		mut  func([]byte) [][]byte
	}{
		{"proper prefix", func(enc []byte) [][]byte {
			var out [][]byte
			for i := 0; i < len(enc); i++ {
				out = append(out, enc[:i])
			}
			return out
		}},
		{"trailing junk", func(enc []byte) [][]byte {
			return [][]byte{append(append([]byte(nil), enc...), 0)}
		}},
	}
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			states, effs := harvest(t, alg, 1)
			check := func(kind string, enc []byte, err error) {
				if err == nil {
					t.Fatalf("%s %x: corrupt encoding decoded", kind, enc)
				}
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("%s %x: err = %v, want codec.ErrCorrupt", kind, enc, err)
				}
			}
			for _, m := range mutations {
				for _, enc := range states {
					for _, bad := range m.mut(enc) {
						_, err := alg.DecodeState(bad)
						check("state/"+m.name, bad, err)
					}
				}
				for _, enc := range effs {
					for _, bad := range m.mut(enc) {
						_, err := alg.DecodeEffector(bad)
						check("effector/"+m.name, bad, err)
					}
				}
			}
			if _, err := alg.DecodeEffector([]byte{0xfe}); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("unknown effector tag: err = %v, want codec.ErrCorrupt", err)
			}
			if eff, err := alg.DecodeEffector([]byte{codec.TagIdentity}); err != nil || !crdt.IsIdentity(eff) {
				t.Fatalf("identity tag: got %v, %v", eff, err)
			}
		})
	}
}

// TestDecodersRejectUnorderedEntries: the state encoders write every keyed
// collection in strictly increasing key order, so its decoder must reject
// two entries out of order, or two for one key. For each such collection a
// hand-built encoding of two entries in order decodes and re-encodes to the
// same bytes; the same entries swapped, or one entry repeated, must fail
// with codec.ErrCorrupt.
func TestDecodersRejectUnorderedEntries(t *testing.T) {
	coll := func(es ...[]byte) []byte {
		b := codec.AppendUvarint(nil, uint64(len(es)))
		for _, e := range es {
			b = append(b, e...)
		}
		return b
	}
	lwwEntry := func(e string, n int64) []byte {
		b := codec.AppendValue(nil, model.Str(e))
		b = codec.AppendStamp(b, model.Stamp{N: n})
		return codec.AppendBool(b, true)
	}
	cseqRec := func(e string, num int64) []byte {
		b := codec.AppendValue(nil, model.Str(e))
		b = codec.AppendUvarint(b, 1) // a one-component tag
		b = codec.AppendRat(b, big.NewRat(num, 4))
		b = codec.AppendVarint(b, 0)
		b = codec.AppendVarint(b, num)
		return codec.AppendValue(b, model.Str("◦"))
	}
	inst := func(e int64) []byte {
		b := codec.AppendValue(nil, model.Int(e))
		b = codec.AppendVarint(b, 0)
		return codec.AppendVarint(b, 1)
	}
	key := func(k string) []byte { return codec.AppendString(nil, k) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) } // a fresh slice
	empty := coll()
	for _, c := range []struct {
		alg, coll string
		lo, hi    []byte                   // two entries, lo's key below hi's
		state     func(coll []byte) []byte // the state encoding around the collection
	}{
		{"lww-set", "entries", lwwEntry("a", 1), lwwEntry("b", 2),
			func(c []byte) []byte { return cat(c, codec.AppendStamp(nil, model.Stamp{N: 2})) }},
		{"cseq", "added", cseqRec("a", 1), cseqRec("b", 2),
			func(c []byte) []byte { return cat(c, codec.AppendValueSet(nil, model.NewValueSet())) }},
		{"aw-set", "adds", inst(1), inst(2),
			func(c []byte) []byte { return cat(c, empty) }},
		{"aw-set", "tombstones", key("1@t0#1"), key("2@t0#1"),
			func(c []byte) []byte { return cat(empty, c) }},
		{"rw-set", "adds", inst(1), inst(2),
			func(c []byte) []byte { return cat(c, empty, empty) }},
		{"rw-set", "removals", inst(1), inst(2),
			func(c []byte) []byte { return cat(empty, c, empty) }},
		{"rw-set", "cancellations", key("1@t0#1"), key("2@t0#1"),
			func(c []byte) []byte { return cat(empty, empty, c) }},
	} {
		alg, ok := registry.ByName(c.alg)
		if !ok {
			t.Fatalf("no algorithm %s", c.alg)
		}
		in := c.state(coll(c.lo, c.hi))
		st, err := alg.DecodeState(in)
		if err != nil || !bytes.Equal(st.AppendBinary(nil), in) {
			t.Fatalf("%s %s in order: err %v, or re-encoded differently", c.alg, c.coll, err)
		}
		for name, bad := range map[string][]byte{
			"out of order": c.state(coll(c.hi, c.lo)),
			"repeated":     c.state(coll(c.lo, c.lo)),
		} {
			if _, err := alg.DecodeState(bad); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s %s %s: err = %v, want codec.ErrCorrupt", c.alg, c.coll, name, err)
			}
		}
	}
}

// FuzzCodecRoundTrip drives the whole codec stack from two fuzzed integers:
// seed picks the workload, knobs picks the algorithm and shape. Every state
// and effector the run reaches must round-trip byte-equal, and mutated
// encodings must either decode to something that re-encodes to exactly the
// mutated bytes or fail with codec.ErrCorrupt — never panic, never a
// non-sentinel error. The decoders are strict, so an encoding that decodes
// is the canonical encoding of what it decodes to.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(7), int64(3))
	f.Add(int64(42), int64(260))
	f.Add(int64(-5), int64(-1))
	f.Add(int64(1<<40), int64(9999))
	f.Fuzz(func(t *testing.T, seed, knobs int64) {
		u := uint64(knobs)
		algs := allAlgorithms()
		alg := algs[int(u%uint64(len(algs)))]
		states, effs := harvest(t, alg, seed)
		for _, enc := range states {
			st, err := alg.DecodeState(enc)
			if err != nil {
				t.Fatalf("%s: state did not round-trip: %v", alg.Name, err)
			}
			if !bytes.Equal(st.AppendBinary(nil), enc) {
				t.Fatalf("%s: state re-encoded differently", alg.Name)
			}
		}
		for _, enc := range effs {
			eff, err := alg.DecodeEffector(enc)
			if err != nil {
				t.Fatalf("%s: effector did not round-trip: %v", alg.Name, err)
			}
			if !bytes.Equal(eff.AppendBinary(nil), enc) {
				t.Fatalf("%s: effector re-encoded differently", alg.Name)
			}
		}
		// Mutate deterministically from the fuzz inputs: flip one bit and
		// truncate. Decoders must stay total (error or canonical value).
		mutate := func(enc []byte) [][]byte {
			if len(enc) == 0 {
				return nil
			}
			bit := int((uint64(seed) ^ u) % uint64(len(enc)*8))
			flipped := append([]byte(nil), enc...)
			flipped[bit/8] ^= 1 << (bit % 8)
			return [][]byte{flipped, enc[:u%uint64(len(enc))]}
		}
		for _, enc := range states {
			for _, bad := range mutate(enc) {
				st, err := alg.DecodeState(bad)
				if err != nil {
					if !errors.Is(err, codec.ErrCorrupt) {
						t.Fatalf("%s: state decode failed with non-sentinel error %v", alg.Name, err)
					}
					continue
				}
				if re := st.AppendBinary(nil); !bytes.Equal(re, bad) {
					t.Fatalf("%s: state mutant %x decoded, but re-encodes as %x", alg.Name, bad, re)
				}
			}
		}
		for _, enc := range effs {
			for _, bad := range mutate(enc) {
				eff, err := alg.DecodeEffector(bad)
				if err != nil {
					if !errors.Is(err, codec.ErrCorrupt) {
						t.Fatalf("%s: effector decode failed with non-sentinel error %v", alg.Name, err)
					}
					continue
				}
				if re := eff.AppendBinary(nil); !bytes.Equal(re, bad) {
					t.Fatalf("%s: effector mutant %x decoded, but re-encodes as %x", alg.Name, bad, re)
				}
			}
		}
	})
}
