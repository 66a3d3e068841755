package mesh

import "ezflow/internal/pkt"

// RelayDepth reports the total number of packets waiting in forwarding
// queues (the paper's b_k for relay k).
func (n *Node) RelayDepth() int {
	d := 0
	for _, q := range n.fwdQ {
		d += q.Len()
	}
	return d
}

// NextHop reports the successor of node on flow, with ok=false at (or off)
// the destination.
func (m *Mesh) NextHop(flow pkt.FlowID, node pkt.NodeID) (pkt.NodeID, bool) {
	if n := m.nodes[node]; n != nil {
		if h := n.hopFor(flow); h != nil {
			return h.next, true
		}
	}
	return 0, false
}
