package ctl

import (
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
)

// diffqCW maps backlog-differential classes to CWmin values, emulating
// DiffQ's four 802.11e queues with decreasing aggressiveness.
var diffqCW = [4]int{16, 32, 128, 512}

// diffqPiggybackBytes is the header overhead DiffQ adds to every data
// frame: the advertised backlog, its packet-structure modification.
const diffqPiggybackBytes = 4

// DiffQNode is the per-node DiffQ state.
type DiffQNode struct {
	node *mesh.Node
	// neighbourBacklog is the queue size most recently advertised by each
	// neighbour — learned from the piggybacked QueueTag, i.e. by message
	// passing (the overhead EZ-Flow avoids).
	neighbourBacklog map[pkt.NodeID]int

	// Updates counts the backlog advertisements received.
	Updates uint64
}

// DiffQ is the DiffQ-style differential-backlog controller (Warrier et
// al. [31]) installed over a mesh. Every node stamps its total backlog on
// outgoing data frames (Frame.QueueTag) and, on each decoded stamped
// frame, re-maps every transmit queue's CWmin from the differential
// between its own backlog and its next hop's: a large positive
// differential selects an aggressive class. It implements Instance.
type DiffQ struct {
	// Nodes holds every node's state, nil until deployment.
	Nodes    map[pkt.NodeID]*DiffQNode
	overhead uint64
}

// Extend implements Instance. The first call installs DiffQ on every
// node; later calls (after route repair) are no-ops, because each remap
// already walks every queue of the node.
func (d *DiffQ) Extend(m *mesh.Mesh) {
	if d.Nodes != nil {
		return
	}
	d.Nodes = make(map[pkt.NodeID]*DiffQNode)
	for _, n := range m.Nodes() {
		dn := &DiffQNode{node: n, neighbourBacklog: make(map[pkt.NodeID]int)}
		d.Nodes[n.ID] = dn
		mc := n.MAC
		// Every attempt carries the tag: a retry goes out as a fresh
		// frame. The tag is not charged on the air, so the stamp
		// declares no bytes for the RTS NAV.
		mc.AddTxStamp(func(f *pkt.Frame) {
			f.QueueTag = mc.TotalQueued()
			d.overhead += diffqPiggybackBytes
		}, 0)
		mc.AddTap(func(f *pkt.Frame, _ pkt.CaptureInfo) {
			if f.Type != pkt.FrameData {
				return
			}
			dn.neighbourBacklog[f.TxSrc] = f.QueueTag
			dn.Updates++
			dn.remap()
		})
	}
}

// OverheadBytes implements Instance: the piggybacked header bytes.
func (d *DiffQ) OverheadBytes() uint64 { return d.overhead }

// remap assigns each transmit queue a CWmin class from the backlog
// differential toward its next hop.
func (dn *DiffQNode) remap() {
	own := dn.node.MAC.TotalQueued()
	for _, q := range dn.node.Queues() {
		diff := own - dn.neighbourBacklog[q.NextHop()]
		cw := diffqCW[3]
		switch {
		case diff > 20:
			cw = diffqCW[0]
		case diff > 5:
			cw = diffqCW[1]
		case diff > 0:
			cw = diffqCW[2]
		}
		q.SetCWmin(cw)
	}
}

func init() {
	Register(Info{
		Name:    "diffq",
		Summary: "DiffQ-style four-class differential backlog (piggybacked totals)",
		Deploy: func(m *mesh.Mesh, _ Options) Instance {
			d := &DiffQ{}
			d.Extend(m)
			return d
		},
	})
}
