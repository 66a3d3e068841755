package phy

import (
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// InCSRange reports whether b senses a's transmissions.
func (c *Channel) InCSRange(a, b pkt.NodeID) bool {
	return c.csReach.Within(c.station(a).pos, c.station(b).pos)
}

// Busy reports whether the medium is sensed busy at node id, either because
// a neighbour within carrier-sense range is transmitting or because the node
// itself is.
func (c *Channel) Busy(id pkt.NodeID) bool {
	if !c.indexed {
		c.buildIndex()
	}
	n := c.station(id)
	return c.sensed[n.slot] > 0 || c.busyTx[n.slot]
}

// transmit puts f on the air from the station AddNode made for src.
func transmit(ch *Channel, src pkt.NodeID, f *pkt.Frame) sim.Time {
	return ch.TransmitFrom(ch.station(src), f)
}
