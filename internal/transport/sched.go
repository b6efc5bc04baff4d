package transport

// sendQueue is the pending batch of a batching endpoint: broadcasts held by
// value, in arrival order, until a flush drains them into wire containers.
// One FIFO is all the replica layer asks of the send side — per-object FIFO
// (DESIGN.md, "Send queue"). It is not safe for concurrent use; the owning
// endpoint serializes access (Stream under its mutex, Mem endpoints
// single-threaded).
type sendQueue struct {
	items []sendItem
}

// sendItem is one queued broadcast: the frame, held by value until a flush
// encodes it, and its envelope size (Frame.wireLen), the bytes it costs a
// container.
type sendItem struct {
	frame Frame
	wire  int
}

// push appends one broadcast to the pending batch.
func (q *sendQueue) push(f Frame) {
	q.items = append(q.items, sendItem{frame: f, wire: f.wireLen()})
}

// reset empties the queue after a flush, dropping its frame references but
// keeping the backing array for the next batch.
func (q *sendQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
}

// containerLen returns how many of the non-empty items, from the front, one
// wire container takes: as many as fit within limit bytes of nested
// envelopes, and at least one, so an oversized frame still ships alone.
func containerLen(items []sendItem, limit int) int {
	n, bytes := 1, items[0].wire
	for n < len(items) && bytes+items[n].wire <= limit {
		bytes += items[n].wire
		n++
	}
	return n
}
