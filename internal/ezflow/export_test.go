package ezflow

import "ezflow/internal/pkt"

// Successor reports which node this BOE watches.
func (b *BOE) Successor() pkt.NodeID { return b.succ }
