package exp

import (
	"ezflow/internal/ctl"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/transport"
)

// BidirectionalResult tests the §2.3 claim that EZ-Flow handles
// bi-directional (TCP-like) traffic, where transport acknowledgements
// travel the reverse path and contend with data hop by hop — unlike
// rate-control schemes that assume end-to-end feedback is free.
type BidirectionalResult struct {
	// Per variant ("802.11", "EZ-flow"): delivered packets, mean relay
	// backlog at the first relay, retransmission fraction.
	Delivered   map[string]uint64
	RelayQ      map[string]float64
	RetransFrac map[string]float64
	Report      Report
}

// Bidirectional runs an AIMD go-back-N connection over a 5-hop chain with
// and without EZ-Flow.
func Bidirectional(o Options) *BidirectionalResult {
	r := &BidirectionalResult{
		Delivered:   make(map[string]uint64),
		RelayQ:      make(map[string]float64),
		RetransFrac: make(map[string]float64),
		Report:      Report{Name: "Bidirectional TCP-like traffic (§2.3 claim)"},
	}
	dur := o.dur(1200)
	type bidirRun struct {
		delivered   uint64
		relayQ      float64
		retransFrac float64
	}
	variants := []bool{false, true}
	ezInfo, _ := ctl.Controllers.ByName("ezflow")
	runs := fanOut(o, variants, func(withEZ bool) bidirRun {
		eng := sim.NewEngine(o.Seed)
		m := mesh.New(eng, phy.DefaultConfig(), mac.DefaultConfig())
		path := make([]pkt.NodeID, 6)
		for i := 0; i <= 5; i++ {
			m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * mesh.DefaultHopDist})
			path[i] = pkt.NodeID(i)
		}
		transport.InstallBidirectional(m, 1, path)
		if withEZ {
			ezInfo.Deploy(m, ctl.Options{})
		}
		cfg := transport.DefaultConfig()
		cfg.MaxWindow = 200
		conn := transport.New(m, 1, cfg)
		conn.Start()

		var sum, n float64
		probe := m.Node(1)
		var tick func()
		tick = func() {
			sum += float64(probe.MAC.TotalQueued())
			n++
			eng.Schedule(sim.Second, tick)
		}
		eng.Schedule(sim.Second, tick)
		eng.Run(dur)

		out := bidirRun{delivered: conn.Delivered, relayQ: sum / n}
		if conn.Sent > 0 {
			out.retransFrac = float64(conn.Retransmits) / float64(conn.Sent)
		}
		return out
	})
	for i, withEZ := range variants {
		name := "802.11"
		if withEZ {
			name = "EZ-flow"
		}
		r.Delivered[name] = runs[i].delivered
		r.RelayQ[name] = runs[i].relayQ
		r.RetransFrac[name] = runs[i].retransFrac
		r.Report.addf("%-8s delivered %6d pkts, N1 backlog %5.1f, retransmit fraction %.3f",
			name, r.Delivered[name], r.RelayQ[name], r.RetransFrac[name])
	}
	r.Report.addf("claim: EZ-flow handles TCP-like flows whose ACKs contend on the reverse path")
	return r
}
