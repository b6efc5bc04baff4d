package model

import "fmt"

// NodeID identifies a node (replica) in the distributed system. Node IDs are
// totally ordered; the order is used to break ties between timestamps, as in
// the (n, t) timestamps of the RGA algorithm (Sec 2.1).
type NodeID int

// String renders the node ID as in the paper's figures: t1, t2, ...
func (t NodeID) String() string { return fmt.Sprintf("t%d", int(t)) }

// MsgID uniquely identifies an operation request: the paper's mid (Sec 3).
// The origin event of an operation and every delivery of its effector share
// the same MsgID.
type MsgID int

// String renders the message ID.
func (m MsgID) String() string { return fmt.Sprintf("m%d", int(m)) }

// OpName names an object operation, e.g. "addAfter", "read", "inc".
type OpName string

// Op pairs an operation name with its argument: the (f, n) of the paper.
type Op struct {
	Name OpName
	Arg  Value
}

// String renders f(n); the argument is omitted when nil.
func (o Op) String() string {
	if o.Arg.IsNil() {
		return string(o.Name) + "()"
	}
	return fmt.Sprintf("%s(%s)", o.Name, o.Arg)
}

// Equal reports whether two ops have the same name and argument.
func (o Op) Equal(p Op) bool { return o.Name == p.Name && o.Arg.Equal(p.Arg) }
