package transport

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/codec"
)

// Manifest declares the replicated objects a multiplexed mesh carries: one
// entry per object ID, naming the object and the algorithm kind whose
// registered decoders interpret its frames. Both ends of a connection
// exchange their manifests during the handshake and require byte-identical
// canonical encodings — a mesh never runs with peers that disagree on what
// an object ID means, so an unknown or reinterpreted ID is a handshake
// failure, not a silent misroute.
//
// A single-object group needs no manifest: nil encodes as the empty manifest
// and matches any other endpoint without one.
type Manifest []ObjectSpec

// ObjectSpec is one manifest entry.
type ObjectSpec struct {
	// ID scopes the object's frames on the wire.
	ID ObjID
	// Name is the deployment's name for the object instance.
	Name string
	// Kind is the algorithm kind (a registry name such as "counter" or
	// "rga") whose decoders both ends must use for the object's payloads.
	Kind string
}

// Manifest encoding (carried as one codec bytes field inside the handshake):
//
//	uvarint nobjects · nobjects×(uvarint id · bytes name · bytes kind),
//	ids strictly ascending

// Validate checks the manifest is well-formed: IDs strictly ascending (hence
// unique) and every entry named.
func (m Manifest) Validate() error {
	for i, o := range m {
		if i > 0 && o.ID <= m[i-1].ID {
			return fmt.Errorf("transport: manifest ids not strictly ascending at entry %d (object %d)", i, o.ID)
		}
		if o.Name == "" || o.Kind == "" {
			return fmt.Errorf("transport: manifest object %d needs a name and a kind", o.ID)
		}
	}
	return nil
}

// Lookup returns the entry for id.
func (m Manifest) Lookup(id ObjID) (ObjectSpec, bool) {
	for _, o := range m {
		if o.ID == id {
			return o, true
		}
	}
	return ObjectSpec{}, false
}

// Sorted returns a copy of m with entries ordered by ID — the canonical
// order Validate and the encoding require.
func (m Manifest) Sorted() Manifest {
	out := append(Manifest(nil), m...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Append appends m's canonical encoding to b. The caller is expected to have
// validated m; entries are emitted in ID order regardless, so equal manifests
// encode byte-equal.
func (m Manifest) Append(b []byte) []byte {
	sorted := m.Sorted()
	b = codec.AppendUvarint(b, uint64(len(sorted)))
	for _, o := range sorted {
		b = codec.AppendUvarint(b, uint64(o.ID))
		b = codec.AppendBytes(b, []byte(o.Name))
		b = codec.AppendBytes(b, []byte(o.Kind))
	}
	return b
}

// Encode renders m as one canonical manifest encoding.
func (m Manifest) Encode() []byte { return m.Append(nil) }

// DecodeManifest parses one manifest encoding, requiring every byte to be
// consumed and the entries valid. Malformed input fails with an error
// wrapping codec.ErrCorrupt.
func DecodeManifest(b []byte) (Manifest, error) {
	d := codec.NewDecoder(b)
	var m Manifest
	for range d.Count() {
		m = append(m, ObjectSpec{ID: ObjID(d.Uvarint()), Name: d.Str(), Kind: d.Str()})
	}
	if err := m.Validate(); err != nil {
		d.Fail("%v", err)
	}
	return codec.Result(&d, m)
}

// String renders the manifest for diagnostics: "1:accounts/counter,
// 2:tags/g-set" — or "(empty)" for a single-object group without one.
func (m Manifest) String() string {
	if len(m) == 0 {
		return "(empty)"
	}
	parts := make([]string, 0, len(m))
	for _, o := range m.Sorted() {
		parts = append(parts, fmt.Sprintf("%d:%s/%s", o.ID, o.Name, o.Kind))
	}
	return strings.Join(parts, ", ")
}
