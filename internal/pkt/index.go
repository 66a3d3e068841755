// Node-index plumbing: a compact dense index over a set of NodeIDs.
//
// NodeIDs are arbitrary integers chosen by topology builders, so runtime
// state keyed by node wants a translation to dense slots 0..N-1 — then
// per-node state lives in flat slices instead of maps, and broadcast
// iteration in slot order is identical to iteration in ascending id
// order (the repository's determinism convention). The PHY channel keys
// its station table and neighbor index on a NodeIndex; lookups are
// branch-predictable binary searches with no hashing and no allocation.
package pkt

import "slices"

// NodeIndex maps a sorted set of NodeIDs to dense slots 0..len(IDs())-1 and
// back. The zero value is an empty, usable index. Slots are assigned in
// ascending id order, so iterating the slots in order visits nodes in the
// same order as iterating sorted ids — inserting a new id therefore
// shifts the slots of every larger id (Add returns the insertion slot so
// callers can keep parallel slices aligned).
type NodeIndex struct {
	ids []NodeID
}

// IDs returns the backing sorted id slice. Callers must not modify it.
func (x *NodeIndex) IDs() []NodeID { return x.ids }

// Slot returns the dense slot of id, or ok=false if id is not indexed.
func (x *NodeIndex) Slot(id NodeID) (slot int, ok bool) {
	return slices.BinarySearch(x.ids, id)
}

// Add inserts id, keeping the set sorted, and returns the slot it was
// assigned (every previously indexed id >= id moves up one slot). It
// reports ok=false — without inserting — if id is already present.
func (x *NodeIndex) Add(id NodeID) (slot int, ok bool) {
	at, present := slices.BinarySearch(x.ids, id)
	if present {
		return at, false
	}
	x.ids = slices.Insert(x.ids, at, id)
	return at, true
}
