package transport

import (
	"errors"
	"net"
	"syscall"
	"testing"
)

// RecvQueueFrames is the depth of every receive queue, for the backpressure
// tests to size their bursts beyond.
const RecvQueueFrames = recvQueueFrames

// PeerGaps returns the number of mids p has applied above their origin's
// base: the applied set's exception entries, empty once every gap closes.
func PeerGaps(p *Peer) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cc.gaps)
}

// OnLoopbackPorts runs attempt on an address table of n tcp loopback ports
// and returns its error. Each port is reserved by binding an ephemeral
// listener and closing it before the endpoints bind the port, so another
// process can take it in between: an attempt whose error wraps EADDRINUSE
// runs again on fresh ports, up to five attempts in all.
func OnLoopbackPorts(tb testing.TB, n int, attempt func(addrs []string) error) error {
	tb.Helper()
	for try := 1; ; try++ {
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				tb.Fatal(err)
			}
			addrs[i] = "tcp:" + ln.Addr().String()
			ln.Close()
		}
		err := attempt(addrs)
		if try == 5 || !errors.Is(err, syscall.EADDRINUSE) {
			return err
		}
		tb.Logf("attempt %d: %v; retrying on fresh ports", try, err)
	}
}
