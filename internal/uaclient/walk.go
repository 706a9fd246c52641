package uaclient

import (
	"context"
	"errors"
	"time"

	"repro/internal/uamsg"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// WalkOptions bound an address-space traversal. The defaults mirror the
// paper's politeness limits (Appendix A.2): 500 ms between requests,
// 60 minutes and 50 MB per host. Simulations set Delay to zero.
//
// The walk names up to batchSize nodes per Browse or Read request, and
// the limits keep their per-request and per-host meaning under that
// batching:
//
//   - Delay is waited after every answered request (Browse, BrowseNext,
//     Read), whatever the number of nodes it named, so a walked host of
//     ≈ 90 nodes sees ≈ 10 requests 500 ms apart instead of ≈ 93.
//   - MaxDuration, MaxBytes and the context are checked before every
//     Browse and Read request, not between the nodes of one: a batch in
//     flight is answered and folded before the walk stops, so the
//     overshoot is at most one response.
//   - MaxNodes is exact: the fold stops at the node that reaches it, in
//     the middle of a batch if need be, at the same node a one-node
//     request loop stops at.
type WalkOptions struct {
	Delay       time.Duration
	MaxDuration time.Duration
	MaxBytes    int64
	MaxNodes    int
	// ReadValues samples the value of up to MaxValueReads readable
	// variables (used for classification evidence).
	ReadValues    bool
	MaxValueReads int
}

// DefaultWalkOptions returns the paper's limits.
func DefaultWalkOptions() WalkOptions {
	return WalkOptions{
		Delay:         500 * time.Millisecond,
		MaxDuration:   60 * time.Minute,
		MaxBytes:      50 << 20,
		MaxNodes:      100000,
		MaxValueReads: 16,
	}
}

// NodeInfo is one traversed node with its anonymous-effective rights.
type NodeInfo struct {
	ID              uatypes.NodeID
	Class           uamsg.NodeClass
	BrowseName      uatypes.QualifiedName
	DisplayName     string
	UserAccessLevel uamsg.AccessLevel
	UserExecutable  bool
	Value           *uatypes.Variant
}

// WalkResult is the outcome of an address-space traversal.
type WalkResult struct {
	Nodes      []NodeInfo
	Namespaces []string
	Truncated  bool
	LimitHit   string // which limit stopped the walk, if any
}

// A Walker is the scratch of one walk at a time, which the next walk
// reuses: a grab worker keeps one, so its walks stop allocating once the
// buffers fit the largest address space seen. The zero value is ready.
type Walker struct {
	res                WalkResult
	queue              []uatypes.NodeID
	visited            map[uatypes.NodeID]struct{}
	variables, methods []int // indices into res.Nodes
	browse             []uamsg.BrowseDescription
	read               []uamsg.ReadValueID
}

// batchSize is how many nodes one Browse or Read request of the walk
// names: the frontier is browsed, and the rights are read, a hundred
// nodes at a time.
const batchSize = 100

// Walk traverses the address space breadth-first from the Objects folder
// within the configured limits. It requires an activated session.
//
// The frontier is browsed in batches: up to batchSize queued nodes go
// into one BrowseRequest and the results are folded in queue order.
// That is the order a node-at-a-time loop produces — node i's listing
// does not depend on what was visited, and it is filtered against the
// visited set left by the nodes before it either way — so the node
// list, its order and a MaxNodes cut are independent of the batch size
// (DESIGN.md §4, "Fewer requests, not just cheaper ones").
//
// Servers that bound multi-operation requests degrade the batch instead
// of failing the walk: a request refused as too large is halved and
// retried with the same nodes, down to one node per request; a node
// refused for want of a continuation point is browsed again alone once
// the batch's continuation points are drained; any other bad status
// skips only the node it belongs to. A request that fails below the
// service layer (closed connection, deadline, malformed frame) ends the
// walk with what was collected (LimitHit "transport") rather than
// failing once more per queued node.
//
// The walk runs on w's scratch and returns w's result, valid until w's
// next walk; a nil w walks on scratch of its own.
func (c *Client) Walk(ctx context.Context, o WalkOptions, w *Walker) (*WalkResult, error) {
	if w == nil {
		w = new(Walker)
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100000
	}
	w.res, w.variables, w.methods = WalkResult{Nodes: w.res.Nodes[:0]}, w.variables[:0], w.methods[:0]
	if w.visited == nil {
		w.visited = make(map[uatypes.NodeID]struct{})
	}
	clear(w.visited)
	res := &w.res
	deadline := time.Time{}
	if o.MaxDuration > 0 {
		deadline = c.clock.Now().Add(o.MaxDuration)
	}
	limitHit := func() bool {
		if c.broken {
			res.Truncated, res.LimitHit = true, "transport"
			return true
		}
		if ctx.Err() != nil {
			res.Truncated, res.LimitHit = true, "context"
			return true
		}
		if !deadline.IsZero() && c.clock.Now().After(deadline) {
			res.Truncated, res.LimitHit = true, "time"
			return true
		}
		if o.MaxBytes > 0 {
			r, w := c.BytesTransferred()
			if r+w > o.MaxBytes {
				res.Truncated, res.LimitHit = true, "bytes"
				return true
			}
		}
		return false
	}
	pause := func() {
		if o.Delay > 0 {
			c.clock.Sleep(ctx, o.Delay)
		}
	}
	if ns, err := c.NamespaceArray(); err == nil {
		res.Namespaces = ns
	}
	pause()

	queue, head := append(w.queue[:0], uatypes.NewNumericNodeID(0, uamsg.IDObjectsFolder)), 0 // queue[head:] is due
	visited := w.visited
	visited[queue[0]] = struct{}{}

	// fold appends the unvisited targets of one node's listing; false
	// means MaxNodes was reached.
	fold := func(refs []uamsg.ReferenceDescription) bool {
		for i := range refs {
			ref := &refs[i]
			id := ref.NodeID.NodeID
			if _, seen := visited[id]; seen {
				continue
			}
			visited[id] = struct{}{}
			switch ref.NodeClass {
			case uamsg.NodeClassVariable:
				w.variables = append(w.variables, len(res.Nodes))
			case uamsg.NodeClassMethod:
				w.methods = append(w.methods, len(res.Nodes))
			}
			res.Nodes = append(res.Nodes, NodeInfo{
				ID:          id,
				Class:       ref.NodeClass,
				BrowseName:  ref.BrowseName,
				DisplayName: ref.DisplayName.Text,
			})
			if ref.NodeClass == uamsg.NodeClassObject || ref.NodeClass == uamsg.NodeClassVariable {
				queue = append(queue, id)
			}
			if len(res.Nodes) >= o.MaxNodes {
				res.Truncated, res.LimitHit = true, "nodes"
				return false
			}
		}
		return true
	}

	size := batchSize
browsing:
	for head < len(queue) && len(res.Nodes) < o.MaxNodes && !limitHit() {
		batch := queue[head:min(head+size, len(queue))]
		results, err := c.browse(batch, pause, &w.browse)
		if err != nil {
			var refused ServiceError
			if len(batch) > 1 && errors.As(err, &refused) && tooLarge(refused.Code) {
				size = len(batch) / 2
				continue // the same nodes, in smaller requests
			}
			// Nodes may be restricted; continue with the rest (if the
			// connection broke, the limit check ends the loop).
			head += len(batch)
			continue
		}
		head += len(batch)
		for i := range results {
			r := results[i]
			if r.Status == uastatus.BadNoContinuationPoints && len(batch) > 1 {
				// Every continuation point of the batch is drained by
				// now, so alone the node gets the one it needs.
				if limitHit() {
					break browsing
				}
				alone, err := c.browse(batch[i:i+1], pause, &w.browse)
				if err != nil {
					continue
				}
				r = alone[0]
			}
			if r.Status.IsBad() {
				continue
			}
			if !fold(r.References) {
				break browsing
			}
		}
	}
	w.queue = queue

	// Batch-read effective access rights.
	readRights := func(nodes []int, attr uamsg.AttributeID, set func(*NodeInfo, *uatypes.Variant)) {
		for start := 0; start < len(nodes) && !limitHit(); start += batchSize {
			part := nodes[start:min(start+batchSize, len(nodes))]
			w.read = w.read[:0]
			for _, idx := range part {
				w.read = append(w.read, uamsg.ReadValueID{NodeID: res.Nodes[idx].ID, AttributeID: attr})
			}
			vals, err := c.read(w.read)
			if err != nil {
				return
			}
			pause()
			for i, dv := range vals[:min(len(vals), len(part))] {
				if dv.Value != nil {
					set(&res.Nodes[part[i]], dv.Value)
				}
			}
		}
	}
	readRights(w.variables, uamsg.AttrUserAccessLevel, func(n *NodeInfo, v *uatypes.Variant) {
		n.UserAccessLevel = uamsg.AccessLevel(v.Uint)
	})
	readRights(w.methods, uamsg.AttrUserExecutable, func(n *NodeInfo, v *uatypes.Variant) {
		n.UserExecutable = v.Bool
	})

	if o.ReadValues {
		reads := 0
		for i := range res.Nodes {
			if limitHit() || reads >= o.MaxValueReads {
				break
			}
			n := &res.Nodes[i]
			if n.Class != uamsg.NodeClassVariable || !n.UserAccessLevel.CanRead() {
				continue
			}
			dv, err := c.ReadValue(n.ID)
			if err != nil {
				break
			}
			pause()
			if dv.Value != nil {
				v := *dv.Value
				n.Value = &v
			}
			reads++
		}
	}
	if c.broken {
		// Also when the failing request was the last one due.
		res.Truncated, res.LimitHit = true, "transport"
	}
	return res, nil
}

// tooLarge reports whether a service result says the request, or the
// response it would need, exceeds what the server handles at once — the
// results that a smaller batch can cure.
func tooLarge(code uastatus.Code) bool {
	switch code {
	case uastatus.BadTooManyOperations, uastatus.BadRequestTooLarge,
		uastatus.BadResponseTooLarge, uastatus.BadEncodingLimitsExceeded:
		return true
	}
	return false
}
