package transport

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/model"
)

// --- frame-layout version crossings ------------------------------------------

// oldFrameAppend reproduces the pre-\x04 inner frame layout (no obj field):
//
//	kind · uvarint mid · uvarint from · uvarint ndeps · deps · bytes payload
func oldFrameAppend(f Frame, b []byte) []byte {
	b = append(b, f.Kind)
	b = codec.AppendUvarint(b, uint64(f.MID))
	b = codec.AppendUvarint(b, uint64(f.From))
	b = codec.AppendUvarint(b, uint64(len(f.Deps)))
	for _, d := range f.Deps {
		b = codec.AppendUvarint(b, uint64(d))
	}
	return codec.AppendBytes(b, f.Payload)
}

// oldFrameDecode reproduces the pre-\x04 decoder: same strictness (every
// byte consumed, kinds validated, deps sorted), no obj field.
func oldFrameDecode(b []byte) (Frame, error) {
	d := codec.NewDecoder(b)
	f := Frame{Kind: d.Tag()}
	if !KindValid(f.Kind) {
		d.Fail("unknown frame kind %d", f.Kind)
	}
	f.MID, f.From = model.MsgID(d.Uvarint()), model.NodeID(d.Uvarint())
	for i := range d.Count() {
		dep := model.MsgID(d.Uvarint())
		if i > 0 && dep <= f.Deps[i-1] {
			d.Fail("frame deps not strictly sorted")
		}
		f.Deps = append(f.Deps, dep)
	}
	f.Payload = d.Bytes()
	return f, d.Done()
}

// TestFrameVersionCrossDecode pins the failure mode of a layout-version
// crossing: a pre-\x04 frame (no obj field) fed to the current decoder, and
// a current frame fed to the pre-\x04 decoder, both fail with an error
// wrapping codec.ErrCorrupt — the shifted fields break a structural check
// instead of misparsing into a plausible frame. The handshake version byte
// prevents the crossing on a live mesh (TestHandshakeVersionMismatch); this
// table documents what the strict decoding guarantees if bytes cross anyway.
func TestFrameVersionCrossDecode(t *testing.T) {
	// Old-layout bytes on the new decoder: the mid slot is read as obj, so
	// every later field shifts one position and a structural check breaks —
	// a truncated payload, unsorted deps — before a plausible frame emerges.
	oldToNew := []Frame{
		{Kind: KindEffector, MID: 5, From: 2, Payload: []byte("xy")},
		{Kind: KindEffector, MID: 7, From: 1, Deps: []model.MsgID{3, 4}, Payload: []byte("p")},
		{Kind: KindDone, MID: 9, From: 1, Payload: codec.AppendUvarint(nil, 3)},
	}
	for i, f := range oldToNew {
		old := oldFrameAppend(f, nil)
		if got, err := Decode(old); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("vector %d: old-layout bytes on the new decoder: got %+v err=%v, want ErrCorrupt", i, got, err)
		}
	}
	// New-layout bytes on the old decoder: the obj field is read as mid and
	// the shift runs the other way. Not every frame is caught without the
	// handshake gate — a sufficiently aligned shift can misparse cleanly —
	// which is exactly why the version byte refuses the connection first.
	newToOld := []Frame{
		{Kind: KindEffector, Obj: 0, MID: 5, From: 2, Payload: []byte("xy")},
		{Kind: KindEffector, Obj: 1, MID: 7, From: 0, Deps: []model.MsgID{3, 4}, Payload: []byte("p")},
		{Kind: KindDone, Obj: 2, MID: 9, From: 0, Payload: codec.AppendUvarint(nil, 3)},
	}
	for i, f := range newToOld {
		cur := f.Append(nil)
		if got, err := oldFrameDecode(cur); err == nil || !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("vector %d: new-layout bytes on the old decoder: got %+v err=%v, want ErrCorrupt", i, got, err)
		}
	}
}

// TestFrameObjRoundTrip pins the obj field through the wire envelope and the
// canonical re-encoding.
func TestFrameObjRoundTrip(t *testing.T) {
	for _, obj := range []ObjID{0, 1, 7, 300} {
		f := Frame{Kind: KindEffector, Obj: obj, MID: 5, From: 2, Payload: []byte("v")}
		got, err := DecodeWire(EncodeWire(f))
		if err != nil || got.Obj != obj {
			t.Fatalf("obj %d: round trip got %+v err=%v", obj, got, err)
		}
	}
}

// --- handshake version and manifest validation --------------------------------

// listenErr runs Listen in the background, reporting the endpoint or error.
func listenErr(self model.NodeID, addrs []string, opts ...StreamOption) (<-chan *Stream, <-chan error) {
	stCh := make(chan *Stream, 1)
	errCh := make(chan error, 1)
	go func() {
		st, err := Listen(self, addrs, opts...)
		if err != nil {
			errCh <- err
			return
		}
		stCh <- st
	}()
	return stCh, errCh
}

// TestHandshakeVersionMismatch dials a current-version endpoint with the
// previous wire version's magic: the handshake must fail with the explicit
// version-mismatch diagnostic, not a generic magic failure — an operator
// mixing binaries should learn which side is old.
func TestHandshakeVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	_, errCh := listenErr(0, addrs)
	var c net.Conn
	var err error
	for i := 0; i < 200; i++ {
		c, err = net.Dial("unix", filepath.Join(dir, "n0.sock"))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oldMagic := append([]byte(nil), streamMagic...)
	oldMagic[len(oldMagic)-1] = 0x03
	if _, err := c.Write(append(oldMagic, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		want := "handshake version mismatch: peer speaks wire version 3, this node speaks 4"
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("listen error %q does not carry the version diagnostic %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("listen did not fail on the version mismatch")
	}
}

// TestHandshakeManifestMismatch connects two endpoints that disagree on what
// object 1 is: both sides must reject the connection with the manifest
// diagnostic naming the two manifests (the acceptor answers before
// validating, so the dialer sees the disagreement too instead of a hangup).
func TestHandshakeManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	_, err0 := listenErr(0, addrs, WithManifest(Manifest{{ID: 1, Name: "accounts", Kind: "counter"}}))
	_, err1 := listenErr(1, addrs, WithManifest(Manifest{{ID: 1, Name: "accounts", Kind: "g-set"}}))
	for side, ch := range map[string]<-chan error{"acceptor": err0, "dialer": err1} {
		select {
		case err := <-ch:
			if !strings.Contains(err.Error(), "object manifest mismatch") {
				t.Errorf("%s error %q does not carry the manifest diagnostic", side, err)
			}
			if !strings.Contains(err.Error(), "counter") || !strings.Contains(err.Error(), "g-set") {
				t.Errorf("%s error %q does not name both manifests", side, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not fail on the manifest mismatch", side)
		}
	}
}

// TestHandshakeManifestAgreement: equal manifests connect, and the mesh
// carries frames normally afterwards.
func TestHandshakeManifestAgreement(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	man := Manifest{{ID: 1, Name: "accounts", Kind: "counter"}, {ID: 2, Name: "tags", Kind: "g-set"}}
	st0Ch, err0 := listenErr(0, addrs, WithManifest(man), WithRecvTimeout(5*time.Second))
	st1Ch, err1 := listenErr(1, addrs, WithManifest(man), WithRecvTimeout(5*time.Second))
	var st0, st1 *Stream
	for i := 0; i < 2; i++ {
		select {
		case st0 = <-st0Ch:
		case st1 = <-st1Ch:
		case err := <-err0:
			t.Fatalf("node 0: %v", err)
		case err := <-err1:
			t.Fatalf("node 1: %v", err)
		case <-time.After(20 * time.Second):
			t.Fatal("mesh never connected")
		}
	}
	defer st0.Close()
	defer st1.Close()
	if err := st0.Broadcast(Frame{Kind: KindEffector, Obj: 2, MID: 1, From: 0, Payload: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	f, ok, err := st1.Recv(true)
	if err != nil || !ok || f.Obj != 2 || f.MID != 1 {
		t.Fatalf("recv after manifest handshake: %+v ok=%v err=%v", f, ok, err)
	}
}
