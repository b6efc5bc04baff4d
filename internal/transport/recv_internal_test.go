package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/model"
)

func TestRecvPolicyNormalized(t *testing.T) {
	cases := []struct {
		in, want RecvPolicy
	}{
		{RecvPolicy{}, RecvPolicy{Workers: 1}},
		{RecvPolicy{Workers: -3}, RecvPolicy{Workers: 1}},
		{RecvPolicy{Workers: 4}, RecvPolicy{Workers: 4}},
	}
	for _, c := range cases {
		if got := c.in.normalized(); got != c.want {
			t.Errorf("normalized(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestStreamResetIsHangup: a peer connection that ends in a reset instead of
// a FIN, after its frames were read, has hung up cleanly — recvLoop treats
// ECONNRESET like EOF — so the next blocking Recv reports ErrExhausted, not a
// receive error, and the receive ledger keeps every frame it read.
func TestStreamResetIsHangup(t *testing.T) {
	var ends [2]*Stream
	err := OnLoopbackPorts(t, 2, func(addrs []string) error {
		errs := make(chan error, 2)
		for i := range ends {
			go func() {
				var err error
				ends[i], err = Listen(model.NodeID(i), addrs, WithRecvTimeout(5*time.Second), WithBatching(BatchPolicy{MaxFrames: 8}))
				errs <- err
			}()
		}
		return errors.Join(<-errs, <-errs)
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver := ends[0], ends[1]
	defer sender.Close()
	defer receiver.Close()
	for i := 1; i <= 3; i++ {
		if err := sender.Broadcast(Frame{Kind: KindEffector, MID: model.MsgID(2*i - 1), From: 0, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := receiver.Recv(true); err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
		}
	}
	sender.mu.Lock()
	c := sender.conns[1].(*net.TCPConn)
	sender.mu.Unlock()
	if err := c.SetLinger(0); err != nil { // close with an RST
		t.Fatal(err)
	}
	c.Close()
	if _, ok, err := receiver.Recv(true); ok || !errors.Is(err, ErrExhausted) {
		t.Fatalf("Recv after the sender's reset: ok=%v err=%v, want ErrExhausted", ok, err)
	}
	if got := receiver.Stats().TotalRecv().Frames; got != 3 {
		t.Fatalf("receive ledger counts %d frames, want 3", got)
	}
}
