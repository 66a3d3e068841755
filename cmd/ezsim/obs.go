// Observability flags for ezsim: the live introspection endpoint (-obs),
// the packet flight recorder (-flightrec*), metrics snapshot export
// (-metrics) and CPU/heap profiles (-cpuprofile/-memprofile). All of it
// is off by default and none of it changes a run's results — the
// campaign goldens pin that byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ezflow"
	"ezflow/internal/obs"
)

// obsOpts holds the observability flag values for one invocation.
type obsOpts struct {
	flightPath string
	flightSize int
	flightFlow int
	flightNode string
	addr       string
	holdSec    float64
	periodSec  float64
	metrics    string
	cpuProfile string
	memProfile string
}

// registerFlags declares the observability flags on fs.
func (o *obsOpts) registerFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.flightPath, "flightrec", "", "dump the packet flight record (JSONL) to this file (\"-\" = stdout)")
	fs.IntVar(&o.flightSize, "flightrec-size", obs.DefaultFlightRecorderSize, "flight-recorder ring capacity in events (keeps the last N)")
	fs.IntVar(&o.flightFlow, "flightrec-flow", 0, "restrict the flight dump to this flow id (0 = all flows)")
	fs.StringVar(&o.flightNode, "flightrec-node", "", "restrict the flight dump to events touching this node, e.g. N3 (\"\" = all nodes)")
	fs.StringVar(&o.addr, "obs", "", "serve live metrics, progress and pprof at this address, e.g. 127.0.0.1:8080")
	fs.Float64Var(&o.holdSec, "obs-hold", 0, "keep the -obs endpoint up this many wall-clock seconds after the run")
	fs.Float64Var(&o.periodSec, "obs-period", 1, "publish a fresh snapshot to -obs every this many simulated seconds")
	fs.StringVar(&o.metrics, "metrics", "", "write the final metrics snapshot (JSON) to this file (\"-\" = stdout)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a post-run heap profile to this file")
}

// active reports whether any flag asked for observability.
func (o *obsOpts) active() bool {
	return o.flightPath != "" || o.addr != "" || o.metrics != ""
}

// config translates the flags into an obs.Config.
func (o *obsOpts) config() obs.Config {
	var c obs.Config
	if o.addr != "" || o.metrics != "" {
		c.Metrics = true
	}
	if o.flightPath != "" {
		c.FlightRecorder = o.flightSize
	}
	return c
}

// filter builds the flight-dump filter from the flags.
func (o *obsOpts) filter() obs.Filter {
	var f obs.Filter
	if o.flightFlow != 0 {
		f.MatchFlow = true
		f.Flow = ezflow.FlowID(o.flightFlow)
	}
	if o.flightNode != "" {
		id, err := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(o.flightNode), "N"))
		if err != nil {
			fatalf("-flightrec-node %q is not a node id (want N3 or 3)", o.flightNode)
		}
		f.MatchNode = true
		f.Node = ezflow.NodeID(id)
	}
	return f
}

// run executes the scenario with whatever observability the flags asked
// for, writing dumps and holding the endpoint afterwards. With no
// observability flags it is exactly sc.Run().
func (o *obsOpts) run(sc *ezflow.Scenario) *ezflow.Result {
	filter := o.filter() // validate before starting anything
	stopProfiles, err := obs.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	var set *obs.Set
	if o.active() {
		set = sc.EnableObs(o.config())
	}
	var srv *obs.Server
	if o.addr != "" {
		srv, err = obs.NewServer(o.addr)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ezsim: observability endpoint at http://%s\n", srv.Addr())
		o.publishPeriodically(sc, set, srv)
	}

	res := sc.Run()
	if err := stopProfiles(); err != nil {
		fatalf("writing profiles: %v", err)
	}

	if o.flightPath != "" {
		o.dumpFlight(set, filter)
	}
	if o.metrics != "" {
		o.dumpMetrics(res)
	}
	if srv != nil {
		srv.PublishSnapshot(res.Obs)
		srv.PublishProgress(obs.Progress{
			SimSeconds:     sc.Eng.Now().Seconds(),
			HorizonSeconds: sc.Cfg.Duration.Seconds(),
		})
		if o.holdSec > 0 {
			fmt.Fprintf(os.Stderr, "ezsim: holding http://%s for %gs\n", srv.Addr(), o.holdSec)
			time.Sleep(time.Duration(o.holdSec * float64(time.Second)))
		}
		srv.Close() //nolint:errcheck // exiting anyway
	}
	return res
}

// publishPeriodically schedules a recurring simulation event that
// publishes a fresh snapshot and progress to the live server. The event
// only reads state and draws no randomness, so it cannot change the
// run's results (extra events renumber the engine's internal sequence
// but preserve relative order).
func (o *obsOpts) publishPeriodically(sc *ezflow.Scenario, set *obs.Set, srv *obs.Server) {
	period := ezflow.Time(o.periodSec * float64(ezflow.Second))
	if period <= 0 {
		return
	}
	horizon := sc.Cfg.Duration
	var tick func()
	tick = func() {
		srv.PublishSnapshot(set.Reg.Snapshot(sc.Eng.Now()))
		srv.PublishProgress(obs.Progress{
			SimSeconds:     sc.Eng.Now().Seconds(),
			HorizonSeconds: horizon.Seconds(),
		})
		if sc.Eng.Now() < horizon {
			sc.Eng.Schedule(period, tick)
		}
	}
	sc.Eng.Schedule(period, tick)
}

// dumpFlight writes the filtered flight record as JSONL.
func (o *obsOpts) dumpFlight(set *obs.Set, f obs.Filter) {
	w := os.Stdout
	if o.flightPath != "-" {
		var err error
		w, err = os.Create(o.flightPath)
		if err != nil {
			fatalf("%v", err)
		}
	}
	n, err := set.Flight.WriteJSONL(w, f)
	if err == nil && o.flightPath != "-" {
		err = w.Close()
	}
	if err != nil {
		fatalf("writing flight record: %v", err)
	}
	if o.flightPath != "-" {
		fmt.Fprintf(os.Stderr, "ezsim: %d flight events written to %s (%d recorded, %d overwritten)\n",
			n, o.flightPath, set.Flight.Total(), set.Flight.Overwritten())
	}
}

// dumpMetrics writes the run's final snapshot as JSON.
func (o *obsOpts) dumpMetrics(res *ezflow.Result) {
	w := os.Stdout
	if o.metrics != "-" {
		var err error
		w, err = os.Create(o.metrics)
		if err != nil {
			fatalf("%v", err)
		}
	}
	err := res.Obs.WriteJSON(w)
	if err == nil && o.metrics != "-" {
		err = w.Close()
	}
	if err != nil {
		fatalf("writing metrics: %v", err)
	}
}
