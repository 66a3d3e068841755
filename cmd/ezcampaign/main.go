// Command ezcampaign runs a declarative experiment campaign: the
// cartesian product of swept parameters (the rows of the campaign
// package's axis table; `ezcampaign -h` lists them with their values)
// with independently seeded replications per grid point, fanned out
// across a worker pool, then aggregated into mean / std / 95% CI per
// point and emitted through the chosen sinks.
//
// Usage:
//
//	ezcampaign -sweep mode=802.11,ezflow,penalty,diffq -sweep hops=2..8 \
//	           -reps 10 -parallel 8 -json out.json
//	ezcampaign -sweep topology=chain,testbed -sweep mode=802.11,ezflow \
//	           -reps 5 -duration 120 -csv runs.csv
//	ezcampaign -sweep topology=grid,random -sweep mode=802.11,ezflow -reps 5
//	ezcampaign -sweep topology=random -sweep nodes=8,12,16,24 -reps 10
//	ezcampaign -sweep hops=3..6 -reps 3 -quiet -json -
//	ezcampaign -sweep mode=802.11,ezflow -sweep flap=0,1 -reps 10
//	ezcampaign -scenario linkfailure.json -sweep mode=802.11,ezflow -reps 5
//	ezcampaign -sweep controller=staticcap,backpressure,feedback,ezflow \
//	           -sweep flap=0,1 -reps 10
//	ezcampaign -sweep routing=bfs,etx,kshortest -sweep mode=802.11,ezflow \
//	           -reps 5
//	ezcampaign -sweep hops=2..8 -reps 10 -cache -shards 4 -json out.json
//
// The controller axis (any registered controller, or 802.11 for the raw
// baseline) subsumes and is mutually exclusive with the mode axis. The
// fault-injection axes flap and churn (values 0|1) sever the first
// flow's middle link, respectively halt its middle relay, from 40% to 50%
// of each run, with BFS route repair; runs with faults additionally
// report recovery time and post-fault tail queue statistics. The axes
// that apply to a scenario file are also ezsim's flags of the same names.
//
// Every run is built from a scenario.Spec: built-in points synthesize one
// from their topology, hops and nodes values, and -scenario runs every
// grid point from a declarative JSON scenario file (topology, flows, and
// dynamics timeline; see internal/scenario). With a file, every axis but
// topology, hops and nodes may be swept — the file fixes the topology —
// and the file's duration_sec wins over -duration when set.
//
// Results are deterministic: the same spec and seed produce byte-identical
// JSON/CSV regardless of -parallel.
//
// Observability: -obs serves live campaign progress (done/total runs)
// and pprof over HTTP while the grid executes; -cpuprofile/-memprofile
// write Go profiles of the whole campaign; -obs-runs attaches per-run
// metrics and flight recording inside every worker. None of these change
// the emitted results — the golden tests pin byte-identity with
// observability on and off.
//
// The campaign fabric (internal/fabric): -cache consults and fills a
// content-addressed result store at -cache-dir, so repeated sweeps only
// simulate new points (a one-line `cache: X hit / Y miss` summary goes
// to stderr); -shards N fans the grid across N `ezcampaign -worker`
// subprocesses sharing that store, with merged output byte-identical to
// -parallel 1 in one process. SIGINT stops gracefully: in-flight runs
// finish and reach the cache, so rerunning the same command resumes
// where the interrupted sweep stopped. -worker is the subprocess side of
// the shard protocol (a JSON job document on stdin, NDJSON result frames
// on stdout) and is not meant for interactive use.
//
// Fault tolerance: sharded workers run supervised — a worker that
// crashes, corrupts its stream, or (with -liveness) goes silent is
// killed and its unfinished assignments are re-dealt to a replacement
// under capped exponential backoff, with merged output still
// byte-identical to the clean run. An assignment that keeps killing
// workers is marked failed after -max-retries consecutive no-progress
// failures and the campaign completes degraded (failed runs carry
// failed/error in JSON and a failed_runs CSV column, and are excluded
// from aggregates). -run-timeout bounds each replication's wall clock in
// any mode; a breach stops the run and is a structured per-run failure,
// as is a panic.
// Every recovery action is counted and reported on a final stderr
// `faults:` line (silent when the campaign was healthy).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"ezflow/internal/buildinfo"
	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
	"ezflow/internal/obs"
	"ezflow/internal/scenario"
)

// sweepFlags collects repeated -sweep flags.
type sweepFlags []campaign.Axis

func (s *sweepFlags) String() string {
	var parts []string
	for _, ax := range *s {
		parts = append(parts, ax.Name+"="+strings.Join(ax.Values, ","))
	}
	return strings.Join(parts, " ")
}

func (s *sweepFlags) Set(v string) error {
	ax, err := campaign.ParseSweep(v)
	if err != nil {
		return err
	}
	*s = append(*s, ax)
	return nil
}

func main() {
	var sweeps sweepFlags
	flag.Var(&sweeps, "sweep", "swept axis as axis=v1,v2,... (repeatable; integer ranges like 2..8 expand); axes: "+campaign.SweepUsage())
	var (
		name     = flag.String("name", "campaign", "campaign name for the report")
		scenFile = flag.String("scenario", "", "JSON scenario file replacing the built-in topologies (fixes topology; its duration wins)")
		reps     = flag.Int("reps", 5, "seed replications per grid point")
		seed     = flag.Int64("seed", 1, "base seed (replication seeds are derived from it)")
		duration = flag.Float64("duration", 120, "simulated seconds per run")
		rate     = flag.Float64("rate", 2e6, "per-flow CBR rate in bit/s when rate is not swept")
		parallel = flag.Int("parallel", 0, "max runs in flight (0 = GOMAXPROCS); does not affect results")
		jsonOut  = flag.String("json", "", "write full JSON result to this file (\"-\" = stdout)")
		csvOut   = flag.String("csv", "", "write per-replication CSV to this file (\"-\" = stdout)")
		quiet    = flag.Bool("quiet", false, "suppress the human-readable report")
		progress = flag.Bool("progress", true, "print live progress to stderr")
		obsAddr  = flag.String("obs", "", "serve live campaign progress and pprof at this address, e.g. 127.0.0.1:8080")
		obsRuns  = flag.Bool("obs-runs", false, "attach per-run observability (metrics + flight recorder) to every run; results stay byte-identical")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = flag.String("memprofile", "", "write a post-campaign heap profile to this file")
		cache    = flag.Bool("cache", false, "consult and fill the content-addressed result store at -cache-dir")
		cacheDir = flag.String("cache-dir", "fabric-cache", "fabric store directory (setting it implies -cache)")
		shards   = flag.Int("shards", 1, "worker subprocesses to fan the grid across (1 = in-process); output is byte-identical for any value")
		worker   = flag.Bool("worker", false, "run as a shard worker: read a job document on stdin, stream result frames on stdout (internal)")
		runTO    = flag.Duration("run-timeout", 0, "wall-clock cap per replication (0 = none); a run over the cap is recorded failed and stopped")
		liveness = flag.Duration("liveness", 0, "with -shards: kill and replace a worker silent for this long (0 = no deadline); must exceed the slowest single run")
		retries  = flag.Int("max-retries", 0, "with -shards: consecutive no-progress worker failures before an assignment is marked failed (0 = default 3)")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("ezcampaign " + buildinfo.String())
		return
	}
	if *worker {
		if err := campaign.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	useCache := *cache
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cache-dir" {
			useCache = true
		}
	})

	spec := campaign.Spec{
		Name:        *name,
		Axes:        sweeps,
		Reps:        *reps,
		BaseSeed:    *seed,
		DurationSec: *duration,
		RateBps:     *rate,
	}
	if *scenFile != "" {
		s, err := scenario.Load(*scenFile)
		if err != nil {
			fatalf("%v", err)
		}
		spec.Scenario = s
	}
	spec.Obs = *obsRuns

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	var srv *obs.Server
	if *obsAddr != "" {
		srv, err = obs.NewServer(*obsAddr)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ezcampaign: observability endpoint at http://%s\n", srv.Addr())
	}

	var store *fabric.Store
	if useCache {
		store, err = fabric.Open(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
	}

	// Graceful SIGINT: stop dispatching new runs and let in-flight ones
	// finish — every completed replication is already in the cache (the
	// store's writes are atomic), so rerunning the same command resumes
	// where the sweep stopped. A second ^C aborts immediately.
	interrupt := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "\nezcampaign: interrupt — letting in-flight runs finish (^C again to abort)")
		close(interrupt)
		<-sigc
		os.Exit(130)
	}()
	interrupted := func() bool {
		select {
		case <-interrupt:
			return true
		default:
			return false
		}
	}

	var progressFn func(done, total int)
	if *progress || srv != nil {
		printProgress := *progress
		progressFn = func(done, total int) {
			// PublishProgress is atomic, so it is safe from whichever worker
			// goroutine reports completion.
			srv.PublishProgress(obs.Progress{Done: int64(done), Total: int64(total)})
			if !printProgress {
				return
			}
			fmt.Fprintf(os.Stderr, "\rezcampaign: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	var (
		res    *campaign.Result
		cstats campaign.CacheStats
		faults campaign.FaultCounters
	)
	if *shards > 1 {
		exe, exeErr := os.Executable()
		if exeErr != nil {
			fatalf("resolving worker executable: %v", exeErr)
		}
		dir := ""
		if useCache {
			dir = *cacheDir
		}
		res, cstats, err = campaign.RunSharded(spec, campaign.ShardOptions{
			Shards:     *shards,
			Command:    []string{exe, "-worker"},
			CacheDir:   dir,
			Parallel:   *parallel,
			RunTimeout: *runTO,
			Liveness:   *liveness,
			MaxRetries: *retries,
			Faults:     &faults,
			Progress:   progressFn,
		})
	} else {
		eng := campaign.Engine{
			Parallel: *parallel, Cache: store, Interrupt: interrupt, Progress: progressFn,
			RunTimeout: *runTO, Faults: &faults,
		}
		res, err = eng.Run(spec)
		cstats = eng.CacheStats()
	}
	if err == campaign.ErrInterrupted || (err != nil && interrupted()) {
		// A terminal ^C also reaches shard workers (same process group),
		// so a worker error after an interrupt is the interrupt.
		if useCache {
			fmt.Fprintf(os.Stderr, "ezcampaign: interrupted; %d completed runs are cached in %s — rerun the same command to resume\n",
				cstats.Hits+cstats.Misses, *cacheDir)
		} else {
			fmt.Fprintln(os.Stderr, "ezcampaign: interrupted (no -cache: completed runs are lost; add -cache to make interrupts resumable)")
		}
		os.Exit(130)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if err := stopProfiles(); err != nil {
		fatalf("writing profiles: %v", err)
	}
	if srv != nil {
		defer srv.Close() //nolint:errcheck // exiting anyway
	}

	var sinks []campaign.Sink
	if !*quiet {
		sinks = append(sinks, campaign.ReportSink{W: os.Stdout})
	}
	closers := []func() error{}
	open := func(path string) *os.File {
		if path == "-" {
			return os.Stdout
		}
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		closers = append(closers, f.Close)
		return f
	}
	if *jsonOut != "" {
		sinks = append(sinks, campaign.JSONSink{W: open(*jsonOut)})
	}
	if *csvOut != "" {
		sinks = append(sinks, campaign.CSVSink{W: open(*csvOut)})
	}
	for _, s := range sinks {
		if err := s.Emit(res); err != nil {
			fatalf("emitting results: %v", err)
		}
	}
	for _, c := range closers {
		if err := c(); err != nil {
			fatalf("%v", err)
		}
	}
	if useCache {
		fmt.Fprintf(os.Stderr, "cache: %d hit / %d miss\n", cstats.Hits, cstats.Misses)
	}
	// One greppable line whenever the fabric had to handle a fault —
	// silent on healthy campaigns, and the CI chaos smoke asserts on it.
	if fs := faults.Snapshot(); fs != (campaign.FaultStats{}) {
		fmt.Fprintf(os.Stderr,
			"faults: fabric.workers.failures=%d fabric.workers.restarts=%d campaign.runs.retried=%d campaign.runs.timeout=%d campaign.runs.panicked=%d campaign.runs.failed=%d\n",
			fs.WorkerFailures, fs.WorkerRestarts, fs.RunsRetried, fs.RunsTimeout, fs.RunsPanicked, fs.RunsFailed)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ezcampaign: "+format+"\n", args...)
	os.Exit(1)
}
