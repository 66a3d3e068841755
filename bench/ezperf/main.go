// Command ezperf is the repository's benchmark. It times the simulator
// end to end and layer by layer on four workloads — paper, disk, mobile
// and campaign — and checks that every run's simulated outputs are
// correct. It drives each layer only through the calls that layer
// exports, so it measures the simulator as a user sees it.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare base1.out base2.out -- head1.out head2.out
//
// One invocation measures one workload, or all four when --workload is
// omitted. Every pass runs in a fresh child process (the binary
// re-executes itself), so heap, GC state and peak RSS belong to that
// pass: one discarded warm-up pass, timed passes until --seconds have
// elapsed (at least three), and with --trace 1 one more pass under the
// CPU profiler. --trace 0 reports the end-to-end metrics as medians over
// the timed passes; --trace 1 reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. bench/README.md describes the workloads
// and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"ezflow/internal/campaign"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are one invocation's settings.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	digests  string
	small    bool
}

// minPasses is the fewest timed passes a measurement takes, however short
// --seconds is.
const minPasses = 3

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ezperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to measure: paper, disk, mobile or campaign (empty: all four)")
	seed := fs.Int64("seed", 1, "benchmark seed; every run's seed derives from it")
	seconds := fs.Float64("seconds", 15, "host seconds of timed passes per workload (at least three passes run)")
	trace := fs.Int("trace", 0, "1: add a profiled pass and report the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its spans and CPU profile to")
	digests := fs.String("digests", filepath.Join("bench", "testdata", "digests.json"), "committed seed-1 output digest of each workload")
	compare := fs.Bool("compare", false, "compare saved outputs: base files, then --, then head files")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	worker := fs.Bool("worker", false, "internal: serve as a campaign shard worker on stdin and stdout")
	passKind := fs.String("pass", "", "internal: run one pass of -workload in this process (plain, timed or traced)")
	small := fs.Bool("small", false, "internal: shrink every workload to a smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ezperf:", err)
		return 1
	}
	switch {
	case *worker:
		if err := campaign.WorkerMain(os.Stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		worse, err := compareMain(fs.Args(), *benchmark, stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace is 0 or 1, not %d", *trace))
	}
	o := &options{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
		digests:  *digests,
		small:    *small,
	}
	if *passKind != "" {
		w, err := lookup(*name)
		if err != nil {
			return fail(err)
		}
		out, err := runPass(w, o.seed, o.small, *passKind, o.traceDir)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			return fail(err)
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range selected {
		rep, err := o.measure(w)
		if err != nil {
			return fail(err)
		}
		if err := rep.print(stdout); err != nil {
			return fail(err)
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, v := range rep.metrics(o.trace) {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(final); err != nil {
		return fail(err)
	}
	return 0
}

// result is the last line of ezperf's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// dist summarises one metric over the timed passes of an invocation.
type dist struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// report is everything one invocation measured on one workload. ezperf
// prints it as a JSON line keyed ezperf_report, which -compare reads back.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Digest    string   `json:"digest"`
	Reference string   `json:"reference"` // the digest outputs were checked against
	Passes    int      `json:"passes"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// E2E holds every end-to-end metric; Layer every per-layer metric,
	// present only when the invocation traced.
	E2E   map[string]dist    `json:"e2e"`
	Layer map[string]float64 `json:"layer,omitempty"`
}

// metrics returns the values the invocation reports on its last line.
func (r *report) metrics(traced bool) map[string]value {
	out := map[string]value{}
	for _, m := range catalog(traced) {
		v := r.E2E[m.name].Median
		if traced {
			v = r.Layer[m.name]
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

// measure runs the warm-up, timed and (when tracing) traced passes of w,
// each in a child process, checks their digests and summarises them.
func (o *options) measure(w *workload) (*report, error) {
	warm, err := o.child(w, passPlain)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Seed: o.seed, Digest: warm.Digest, Reference: warm.Digest}
	if !o.small && o.seed == 1 {
		ref, err := committedDigest(o.digests, w.name)
		if err != nil {
			return nil, err
		}
		rep.Reference = ref
	}
	passes := []*passOut{warm}
	var timed []*passOut
	for start := time.Now(); len(timed) < minPasses || time.Since(start) < o.seconds; {
		out, err := o.child(w, passTimed)
		if err != nil {
			return nil, err
		}
		timed = append(timed, out)
	}
	passes = append(passes, timed...)
	var traced *passOut
	if o.trace {
		if traced, err = o.child(w, passTraced); err != nil {
			return nil, err
		}
		passes = append(passes, traced)
	}

	for _, p := range passes {
		rep.Attempted += p.Runs
		rep.Errors = append(rep.Errors, p.Errors...)
		failed := p.Failed
		if p.Digest != rep.Reference {
			failed = p.Runs
			rep.Errors = append(rep.Errors, fmt.Sprintf("output digest %s, want %s", p.Digest, rep.Reference))
		}
		rep.Failed += failed
	}
	rep.Correct = rep.Failed == 0
	rep.Passes = len(timed)

	summarise := func(key string) dist {
		vs := make([]float64, len(timed))
		for i, p := range timed {
			vs[i] = p.Metrics[key]
		}
		q := quartiles(vs)
		return dist{Median: q[1], Q1: q[0], Q3: q[2], Values: vs}
	}
	rep.E2E = map[string]dist{}
	for _, m := range endToEnd {
		rep.E2E[m.name] = summarise(m.name)
	}
	if traced != nil {
		rep.Layer = map[string]float64{}
		for _, m := range perLayer {
			rep.Layer[m.name] = summarise(m.name).Median
		}
		for _, l := range cpuLayers {
			rep.Layer[cpuKey(l)] = traced.Metrics[cpuKey(l)]
		}
		rep.Layer["trace.samples"] = traced.Metrics["trace.samples"]
		rep.Layer["trace.overhead_pct"] = 100 * (ratio(traced.Metrics["pass_s"], summarise("pass_s").Median) - 1)
	}
	return rep, nil
}

// child runs one pass of w in a fresh ezperf process and adds the
// process's peak resident set to its metrics.
func (o *options) child(w *workload, kind string) (*passOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-pass", kind, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-trace-dir", filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))}
	if o.small {
		args = append(args, "-small")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass of %s: %w", kind, w.name, err)
	}
	var out passOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("%s pass of %s: %w", kind, w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.Metrics["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
	}
	return &out, nil
}

// committedDigest reads the seed-1 digest of a workload from the
// committed digest file.
func committedDigest(path, workload string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading committed digests: %w", err)
	}
	var digests map[string]string
	if err := json.Unmarshal(b, &digests); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	d, ok := digests[workload]
	if !ok {
		return "", fmt.Errorf("%s has no digest for workload %s", path, workload)
	}
	return d, nil
}

// print writes the report as a table, one metric per line, followed by
// its JSON line.
func (r *report) print(w io.Writer) error {
	status := "outputs match"
	if !r.Correct {
		status = fmt.Sprintf("%d of %d runs FAILED", r.Failed, r.Attempted)
	}
	fmt.Fprintf(w, "== %s  seed %d  %d timed passes  digest %.16s  %s\n", r.Workload, r.Seed, r.Passes, r.Digest, status)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, m := range endToEnd {
		d := r.E2E[m.name]
		fmt.Fprintf(w, "   %-28s %14.6g %-9s [q1 %.6g, q3 %.6g]\n", m.name, d.Median, m.unit, d.Q1, d.Q3)
	}
	if r.Layer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-28s %14.6g %s\n", m.name, r.Layer[m.name], m.unit)
		}
	}
	line, err := json.Marshal(map[string]*report{"ezperf_report": r})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quartiles returns the first quartile, median and third quartile of vs
// by the method of Python's statistics.quantiles(vs, n=4) (exclusive).
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
