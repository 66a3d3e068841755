package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ezflow"
	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
	"ezflow/internal/mesh"
	"ezflow/internal/sim"
)

// loopChunks is how many slices of simulated time a run's event loop is
// split into, so that calibration keeps pace with long runs.
const loopChunks = 16

// Pass kinds. The warm-up pass is plain: it runs every scenario with one
// sc.Run(), so its digest checks that the timed passes' phase split
// leaves every output unchanged.
const (
	passPlain  = "plain"
	passTimed  = "timed"
	passTraced = "traced"
)

// passOut is what one pass reports to the parent process.
type passOut struct {
	Digest  string             `json:"digest"`
	Runs    int                `json:"runs"`
	Failed  int                `json:"failed"`
	Errors  []string           `json:"errors,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// counters sums the simulator's own counters over a pass's runs.
type counters struct {
	events, scheduled, cancelled                     uint64
	tx, collisions, erasures                         uint64
	txData, txRetries, txAcked                       uint64
	dropsOverflow, dropsRetry, dropsFlush, cwChanges uint64
	packetNews, packetReuses, frameNews, frameReuses uint64
	overheadBytes, rerouteFailures                   uint64
	ticks, moves, deferred, repairs                  uint64
	flows, hops                                      int
	peakQueue                                        int
	build, wire, firstTx, loop, summary, reroute     time.Duration
	simSec                                           float64
}

// flowOutputs is the part of a run's result the campaign engine also
// reports, kept to check the engine against the direct runs.
type flowOutputs struct {
	agg, fairness float64
	flowKbps      map[ezflow.FlowID]float64
}

// pass executes one pass of a workload inside this process.
type pass struct {
	w      *workload
	seed   int64
	small  bool
	split  bool
	tr     *tracer
	cal    *calibrator
	run    int // index of the scenario run in progress, -1 between runs
	digest hash.Hash
	c      counters
	out    passOut
	direct []flowOutputs
	camp   *campaignTotals // nil on scenario workloads
}

// campaignTotals are the campaign steps' measurements.
type campaignTotals struct {
	runs, replays     int
	cold, warm, shard time.Duration
	faults            campaign.FaultStats
	store             fabric.Stats
	storeBytes        int64
}

// runPass runs one pass of w and returns its report. A traced pass also
// profiles the CPU and writes the profile and its spans to traceDir.
func runPass(w *workload, seed int64, small bool, kind, traceDir string) (*passOut, error) {
	p := &pass{w: w, seed: seed, small: small, split: kind != passPlain, run: -1, digest: sha256.New(), cal: newCalibrator()}
	var prof bytes.Buffer
	if kind == passTraced {
		p.tr = newTracer(w.name)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wall := p.phase("pass", p.work)
	runtime.ReadMemStats(&after)
	if p.tr != nil {
		pprof.StopCPUProfile()
	}
	workerWall, err := workerStart()
	if err != nil {
		return nil, err
	}

	m := p.metrics()
	f := p.cal.speed()
	m["host.speed"] = f
	m["pass_s"] = (wall - p.cal.spent).Seconds() * f
	m["campaign.worker_start_ms"] = ms(p.cal.scale(workerWall))
	m["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["heap.mallocs"] = float64(after.Mallocs - before.Mallocs)
	m["gc.cycles"] = float64(after.NumGC - before.NumGC)
	m["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 * f

	if p.tr != nil {
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for l, v := range shares {
			m[cpuKey(l)] = v
		}
		m["trace.samples"] = float64(samples)
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(traceDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := p.tr.write(filepath.Join(traceDir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	p.out.Digest = hex.EncodeToString(p.digest.Sum(nil))
	p.out.Metrics = m
	return &p.out, nil
}

// phase runs fn, inside a span when tracing, and returns its host time.
func (p *pass) phase(name string, fn func()) time.Duration {
	var d time.Duration
	timed := func() {
		start := time.Now()
		fn()
		d = time.Since(start)
	}
	if p.tr == nil {
		timed()
	} else {
		p.tr.do(name, p.run, timed)
	}
	return d
}

// timed runs fn as a phase and returns its time scaled to the reference
// host (see calibrator).
func (p *pass) timed(name string, fn func()) time.Duration {
	return p.cal.scale(p.phase(name, fn))
}

// calibrate runs a calibration unit when one is due. Callers place it
// between timed phases, never inside one.
func (p *pass) calibrate() {
	if p.cal.due() {
		p.phase("calibrate", p.cal.unit)
	}
}

func (p *pass) fail(runs int, format string, args ...any) {
	p.out.Failed += runs
	p.out.Errors = append(p.out.Errors, fmt.Sprintf(format, args...))
}

func (p *pass) work() {
	runs := p.w.runs(p.seed, p.small)
	if p.w.spec == nil {
		for i, r := range runs {
			p.scenario(i, r)
		}
		return
	}
	p.phase("direct", func() {
		for i, r := range runs {
			p.scenario(i, r)
		}
	})
	p.campaignSteps(p.w.spec(p.seed, p.small))
}

// scenario executes one run through the public API, timing each phase:
// the mesh builder (passed to NewScenario as a callback), the rest of
// NewScenario, the events up to the first transmission, the loop to the
// horizon, and the final sc.Run(), which only assembles the Result. The
// loop runs in loopChunks slices of simulated time with calibration
// between them; the engine processes the same events in the same order
// either way, which the plain warm-up pass checks.
func (p *pass) scenario(i int, r runSpec) {
	// Every run starts from a collected heap with its free pages returned
	// to the OS, as a Go benchmark starts after runtime.GC. Otherwise the
	// memory the runtime retains from earlier runs, which follows GC and
	// scavenger timing, swings a pass's peak RSS by ±10%.
	debug.FreeOSMemory()
	p.calibrate()
	p.run = i
	p.out.Runs++
	defer func() {
		p.run = -1
		if e := recover(); e != nil {
			p.fail(1, "run %d of %s: %v", i, p.w.name, e)
		}
	}()
	var sc *ezflow.Scenario
	var build time.Duration
	setup := p.timed("setup", func() {
		sc = ezflow.NewScenario(r.cfg, func(eng *sim.Engine) *mesh.Mesh {
			var m *mesh.Mesh
			build = p.timed("build", func() { m = r.build(eng, r.cfg) })
			return m
		}, r.flows...)
	})
	var res *ezflow.Result
	c := &p.c
	if p.split {
		tx := &sc.Mesh.Ch.Stats.Transmissions
		c.firstTx += p.timed("first_tx", func() {
			for *tx == 0 && sc.Eng.RunStep() {
			}
		})
		for k := 1; k <= loopChunks; k++ {
			p.calibrate()
			end := sc.Cfg.Duration * ezflow.Time(k) / loopChunks
			c.loop += p.timed("loop", func() { sc.Eng.Run(end) })
		}
		c.summary += p.timed("summary", func() { res = sc.Run() })
	} else {
		c.loop += p.timed("run", func() { res = sc.Run() })
	}
	c.build += build
	c.wire += setup - build
	c.simSec += sc.Cfg.Duration.Seconds()
	p.record(sc, res)
	c.reroute += p.timed("reroute", func() { probeRoutes(sc.Mesh) })
	if p.w.spec != nil {
		out := flowOutputs{agg: res.AggKbps, fairness: res.Fairness, flowKbps: map[ezflow.FlowID]float64{}}
		for f, fr := range res.Flows {
			out.flowKbps[f] = fr.MeanThroughputKbps
		}
		p.direct = append(p.direct, out)
	}
}

// record folds a run's simulated outputs into the pass digest and its
// counters into the pass totals.
func (p *pass) record(sc *ezflow.Scenario, res *ezflow.Result) {
	var b [8]byte
	put := func(xs ...uint64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			p.digest.Write(b[:])
		}
	}
	bits := math.Float64bits
	put(bits(res.AggKbps), bits(res.Fairness))
	ids := make([]ezflow.FlowID, 0, len(res.Flows))
	for f := range res.Flows {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	for _, f := range ids {
		fr := res.Flows[f]
		put(uint64(f), fr.Delivered, bits(fr.MeanThroughputKbps), bits(fr.StdThroughputKbps),
			bits(fr.MeanDelaySec), bits(fr.MaxDelaySec), bits(fr.P95DelaySec))
	}
	st := sc.Mesh.Ch.Stats
	put(sc.Eng.Fired(), st.Transmissions, st.Decoded, st.Collisions, st.Erasures, st.Captures)
	c := &p.c
	if mob := res.MobilityStats; mob != nil {
		put(mob.Ticks, mob.Moves, mob.Deferred, mob.Repairs)
		c.ticks += mob.Ticks
		c.moves += mob.Moves
		c.deferred += mob.Deferred
		c.repairs += mob.Repairs
	}
	c.events += sc.Eng.Fired()
	c.scheduled += sc.Eng.Scheduled()
	c.cancelled += sc.Eng.Cancelled()
	c.tx += st.Transmissions
	c.collisions += st.Collisions
	c.erasures += st.Erasures
	for _, n := range sc.Mesh.Nodes() {
		c.txData += n.MAC.TxData
		c.txRetries += n.MAC.TxRetries
		c.txAcked += n.MAC.TxAcked
		for _, q := range n.MAC.Queues() {
			c.dropsOverflow += q.DroppedOverflow
			c.dropsRetry += q.DroppedRetry
			c.dropsFlush += q.DroppedFlush
			c.cwChanges += q.CWChanges
			c.peakQueue = max(c.peakQueue, q.PeakDepth)
		}
	}
	ps := sc.Mesh.Pool().Stats
	c.packetNews += ps.PacketNews
	c.packetReuses += ps.PacketReuses
	c.frameNews += ps.FrameNews
	c.frameReuses += ps.FrameReuses
	c.overheadBytes += res.OverheadBytes
	c.rerouteFailures += sc.Mesh.RerouteFailures()
	for _, f := range sc.Mesh.Flows() {
		c.flows++
		c.hops += len(sc.Mesh.Route(f)) - 1
	}
}

// probeRoutes re-routes every flow of a finished run once with the
// predicate the scenario's own mobility repair uses: both ends up, link
// not severed, within transmission range.
func probeRoutes(m *mesh.Mesh) {
	usable := func(a, b ezflow.NodeID) bool {
		return !m.Node(a).MAC.Down() && !m.Node(b).MAC.Down() &&
			!m.Ch.LinkDown(a, b) && m.Ch.InTxRange(a, b)
	}
	for _, f := range m.Flows() {
		m.RerouteFlow(f, usable)
	}
}

// campaignSteps runs the workload's campaign three ways after the direct
// step: cold on an in-process engine filling a fresh store, warm by
// replaying it from that store, and sharded across ezperf worker
// processes with their own fresh store. All three must produce the same
// JSON, and the cold runs must equal the direct runs.
func (p *pass) campaignSteps(spec campaign.Spec) {
	replays := make([]*campaign.Result, warmReplays(p.small))
	p.out.Runs += len(p.direct) * (2 + len(replays))
	dir, err := os.MkdirTemp("", "ezperf-campaign-")
	if err != nil {
		p.fail(1, "campaign: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := fabric.Open(filepath.Join(dir, "cold"))
	if err != nil {
		p.fail(1, "campaign: %v", err)
		return
	}
	n := procs()

	p.calibrate()
	var cold *campaign.Result
	coldWall := p.timed("cold", func() {
		cold, err = (&campaign.Engine{Parallel: n, Cache: store}).Run(spec)
	})
	if err != nil {
		p.fail(len(p.direct), "cold campaign: %v", err)
		return
	}
	want := p.campaignJSON("cold", cold)
	p.digest.Write(want)
	if len(p.direct) != len(cold.Runs) {
		p.fail(len(cold.Runs), "cold campaign ran %d runs, the direct step %d", len(cold.Runs), len(p.direct))
		return
	}
	for i, r := range cold.Runs {
		d := p.direct[i]
		same := !r.Failed && r.AggKbps == d.agg && r.Fairness == d.fairness && len(r.FlowKbps) == len(d.flowKbps)
		for f, v := range r.FlowKbps {
			same = same && d.flowKbps[f] == v
		}
		if !same {
			p.fail(1, "cold campaign run %d (%s rep %d) differs from the direct run", i, r.Label, r.Rep)
		}
	}

	p.calibrate()
	warmWall := p.timed("warm", func() {
		for i := range replays {
			if replays[i], err = (&campaign.Engine{Parallel: n, Cache: store}).Run(spec); err != nil {
				return
			}
		}
	})
	if err != nil {
		p.fail(len(p.direct), "warm campaign: %v", err)
		return
	}
	for _, r := range replays {
		if !bytes.Equal(p.campaignJSON("warm", r), want) {
			p.fail(len(r.Runs), "warm campaign JSON differs from the cold one")
		}
	}

	self, err := os.Executable()
	if err != nil {
		p.fail(len(p.direct), "sharded campaign: %v", err)
		return
	}
	var faults campaign.FaultCounters
	var sharded *campaign.Result
	p.calibrate()
	shardWall := p.timed("shard", func() {
		sharded, _, err = campaign.RunSharded(spec, campaign.ShardOptions{
			Shards:   n,
			Command:  []string{self, "-worker"},
			CacheDir: filepath.Join(dir, "shard"),
			Parallel: 1,
			Liveness: time.Minute,
			Faults:   &faults,
		})
	})
	if err != nil {
		p.fail(len(p.direct), "sharded campaign: %v", err)
		return
	}
	if !bytes.Equal(p.campaignJSON("sharded", sharded), want) {
		p.fail(len(sharded.Runs), "sharded campaign JSON differs from the cold one")
	}

	p.camp = &campaignTotals{
		runs: len(cold.Runs), replays: len(replays),
		cold: coldWall, warm: warmWall, shard: shardWall,
		faults: faults.Snapshot(), store: store.Stats(), storeBytes: dirBytes(store.Dir()),
	}
}

// campaignJSON renders a campaign result through campaign.JSONSink and
// counts its failed runs.
func (p *pass) campaignJSON(step string, r *campaign.Result) []byte {
	var buf bytes.Buffer
	if err := (campaign.JSONSink{W: &buf}).Emit(r); err != nil {
		p.fail(len(r.Runs), "%s campaign JSON: %v", step, err)
	}
	for _, run := range r.Runs {
		if run.Failed {
			p.fail(1, "%s campaign run %s rep %d failed: %s", step, run.Label, run.Rep, run.Error)
		}
	}
	return buf.Bytes()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a partial sum only understates the store size
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// workerStart times one campaign shard worker from launch until it has
// sent its closing frame and exited, given no assignments: the fixed cost
// each shard pays before it simulates anything.
func workerStart() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-worker")
	cmd.Stdin = strings.NewReader(`{"spec":{"name":"ezperf"},"assignments":[]}`)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("campaign worker: %w", err)
	}
	if !strings.Contains(out.String(), `"done":true`) {
		return 0, fmt.Errorf("campaign worker sent no closing frame: %q", out.String())
	}
	return d, nil
}

// metrics turns the pass totals, whose times are already scaled to the
// reference host, into metric values.
func (p *pass) metrics() map[string]float64 {
	c := &p.c
	loop := c.firstTx + c.loop
	m := map[string]float64{
		"sim_rate":               ratio(c.simSec, (c.build + c.wire + loop + c.summary).Seconds()),
		"events_per_s":           ratio(float64(c.events), loop.Seconds()),
		"setup_s":                (c.build + c.wire).Seconds(),
		"setup.build_ms":         ms(c.build),
		"setup.wire_ms":          ms(c.wire),
		"loop.first_tx_ms":       ms(c.firstTx),
		"loop.ms":                ms(loop),
		"summary.ms":             ms(c.summary),
		"loop.ns_per_event":      ratio(float64(loop), float64(c.events)),
		"loop.ns_per_tx":         ratio(float64(loop), float64(c.tx)),
		"sim.events":             float64(c.events),
		"sim.scheduled":          float64(c.scheduled),
		"sim.cancel_ratio":       ratio(float64(c.cancelled), float64(c.scheduled)),
		"sim.events_per_sim_s":   ratio(float64(c.events), c.simSec),
		"phy.tx":                 float64(c.tx),
		"phy.collisions":         float64(c.collisions),
		"phy.erasures":           float64(c.erasures),
		"mac.tx_data":            float64(c.txData),
		"mac.retry_ratio":        ratio(float64(c.txRetries), float64(c.txData)),
		"mac.ack_ratio":          ratio(float64(c.txAcked), float64(c.txData)),
		"mac.drops_overflow":     float64(c.dropsOverflow),
		"mac.drops_retry":        float64(c.dropsRetry),
		"mac.drops_flush":        float64(c.dropsFlush),
		"mac.peak_queue":         float64(c.peakQueue),
		"pkt.packet_reuse_ratio": ratio(float64(c.packetReuses), float64(c.packetReuses+c.packetNews)),
		"pkt.frame_reuse_ratio":  ratio(float64(c.frameReuses), float64(c.frameReuses+c.frameNews)),
		"ctl.overhead_bytes":     float64(c.overheadBytes),
		"ctl.cw_changes":         float64(c.cwChanges),
		"mesh.route_hops":        ratio(float64(c.hops), float64(c.flows)),
		"mesh.reroute_us":        ratio(float64(c.reroute)/1e3, float64(c.flows)),
		"mesh.reroute_failures":  float64(c.rerouteFailures),
		"mobility.ticks":         float64(c.ticks),
		"mobility.moves":         float64(c.moves),
		"mobility.deferred":      float64(c.deferred),
		"mobility.repairs":       float64(c.repairs),
	}
	if k := p.camp; k != nil {
		runs := float64(k.runs)
		m["campaign.cold_runs_per_s"] = runs / k.cold.Seconds()
		m["fabric.warm_runs_per_s"] = runs * float64(k.replays) / k.warm.Seconds()
		m["campaign.shard_runs_per_s"] = runs / k.shard.Seconds()
		m["campaign.shard_vs_pool"] = ratio(k.shard.Seconds(), k.cold.Seconds())
		m["campaign.retried"] = float64(k.faults.RunsRetried)
		m["campaign.restarts"] = float64(k.faults.WorkerRestarts)
		m["fabric.hits"] = float64(k.store.Hits)
		m["fabric.misses"] = float64(k.store.Misses)
		m["fabric.puts"] = float64(k.store.Puts)
		m["fabric.store_kb"] = float64(k.storeBytes) / 1024
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
