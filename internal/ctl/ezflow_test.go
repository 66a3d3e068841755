package ctl_test

import (
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/sim"
)

// TestEZFlowRetriesRecordedOnce pins the first-attempt rule: a frame the
// MAC transmits RetryLimit times enters the BOE's send history once.
func TestEZFlowRetriesRecordedOnce(t *testing.T) {
	eng, m, inst := deployOnChain(t, 3, "ezflow", ctl.Options{})
	r := inst.(*ctl.Deployment).Relays[0]
	if r.Node != 0 || r.Successor != 1 {
		t.Fatalf("first relay is %v->%v, want N0->N1", r.Node, r.Successor)
	}
	m.Ch.SetLinkLoss(0, 1, 1.0)
	const sent = 3
	for seq := uint64(1); seq <= sent; seq++ {
		p := m.Pool().Packet(1, seq, 0, 3, 1028, 0)
		m.Inject(p)
		p.Release()
	}
	eng.Run(20 * sim.Second)
	n0 := m.Node(0).MAC
	if want := uint64(sent * (mac.DefaultRetryLimit - 1)); n0.TxRetries != want || n0.TxFailed != sent {
		t.Fatalf("N0 retried %d and failed %d frames, want %d and %d", n0.TxRetries, n0.TxFailed, want, sent)
	}
	if got := r.State.(*ez.Controller).BOE.Sent; got != sent {
		t.Fatalf("BOE recorded %d identifiers for %d packets sent %d times each", got, sent, mac.DefaultRetryLimit)
	}
}

// TestEZFlowScenarioCWTraces checks that a scenario reports one CW trace
// and final window per EZ-Flow relay, read from the ctl deployment.
func TestEZFlowScenarioCWTraces(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 20 * ezflow.Second
	cfg.Controller = "ezflow"
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	dep := sc.Ctl.(*ctl.Deployment)
	res := sc.Run()
	if len(res.CWTraces) != len(dep.Relays) || len(res.FinalCW) != len(dep.Relays) {
		t.Fatalf("%d traces / %d final windows for %d relays", len(res.CWTraces), len(res.FinalCW), len(dep.Relays))
	}
	for _, r := range dep.Relays {
		key := r.Node.String() + "->" + r.Successor.String()
		if got := res.FinalCW[key]; got != r.Caps.Window() {
			t.Errorf("final cw %s = %d, want %d", key, got, r.Caps.Window())
		}
		if tr := res.CWTraces[key]; len(tr) == 0 || tr[len(tr)-1].CW != r.Caps.Window() {
			t.Errorf("cw trace %s = %v does not end at the final window %d", key, tr, r.Caps.Window())
		}
	}
}
