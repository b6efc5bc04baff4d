package transport

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
