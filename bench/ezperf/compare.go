package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compareMain reads saved ezperf outputs — base files, "--", head files —
// and applies the paired-runs rule to every end-to-end metric of every
// workload: each side's median and quartiles, the share of pairs the head
// won, and a verdict against the metric's bound from BENCHMARK.json.
// Pair k is the k-th base file against the k-th head file, so list them
// in the order they ran. Exact per-layer counts and output digests are
// compared between runs of the same workload and seed. It reports whether
// anything got worse: a metric, a count, a digest or a failed run.
func compareMain(args []string, benchmarkPath string, w io.Writer) (bool, error) {
	cut := slices.Index(args, "--")
	if cut < 1 || cut == len(args)-1 {
		return false, errors.New("-compare wants base files, then --, then head files")
	}
	base, err := loadReports(args[:cut])
	if err != nil {
		return false, err
	}
	head, err := loadReports(args[cut+1:])
	if err != nil {
		return false, err
	}
	bounds, err := loadBounds(benchmarkPath)
	if err != nil {
		return false, err
	}

	worse := false
	var names []string
	for _, r := range append(slices.Clone(base), head...) {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
		if !r.Correct {
			worse = true
			fmt.Fprintf(w, "FAILED RUNS: %s seed %d: %d of %d runs failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-9s %-13s %-8s %26s %26s %8s %6s  %s\n", "workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "verdict")
	for _, name := range names {
		b, h := ofWorkload(base, name), ofWorkload(head, name)
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(w, "%-9s only measured on one side\n", name)
			continue
		}
		for _, m := range endToEnd {
			if bound, ok := bounds[m.name]; ok {
				m.bound = bound
			}
			v := judge(m, medians(b, m.name), medians(h, m.name))
			worse = worse || v.verdict == "worse"
			fmt.Fprintf(w, "%-9s %-13s %-8s %26s %26s %+7.2f%% %3d/%-2d  %s\n", name, m.name, m.unit,
				fmtDist(v.base), fmtDist(v.head), v.changePct, v.won, v.pairs, v.verdict)
		}
		for _, br := range b {
			for _, hr := range h {
				if br.Seed != hr.Seed {
					continue
				}
				if br.Digest != hr.Digest {
					worse = true
					fmt.Fprintf(w, "DIGEST MISMATCH: %s seed %d: base %.16s, head %.16s\n", name, br.Seed, br.Digest, hr.Digest)
				}
				if br.Layer == nil || hr.Layer == nil {
					continue
				}
				for _, m := range perLayer {
					if m.exact && br.Layer[m.name] != hr.Layer[m.name] {
						worse = true
						fmt.Fprintf(w, "COUNT CHANGED: %s seed %d %s: base %v, head %v\n", name, br.Seed, m.name, br.Layer[m.name], hr.Layer[m.name])
					}
				}
			}
		}
	}
	return worse, nil
}

// verdict is the outcome of one metric on one workload.
type verdict struct {
	base, head [3]float64
	changePct  float64
	won, pairs int
	verdict    string
}

// judge applies the rule: improved when the head wins at least nine
// tenths of the pairs and the medians differ by more than the base's
// quartile spread; unresolved when that spread is wider than the bound
// (unless every head run beats every base run); worse when the head
// median is worse than the base median by more than the bound; unchanged
// otherwise.
func judge(m metric, base, head []float64) verdict {
	better := func(a, b float64) bool {
		if m.better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{base: quartiles(base), head: quartiles(head), pairs: min(len(base), len(head))}
	for k := 0; k < v.pairs; k++ {
		if better(head[k], base[k]) {
			v.won++
		}
	}
	bm, hm := v.base[1], v.head[1]
	v.changePct = 100 * ratio(hm-bm, math.Abs(bm))
	spread := v.base[2] - v.base[0]
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case better(hm, bm) && float64(v.won) >= 0.9*float64(v.pairs) && math.Abs(hm-bm) > spread:
		v.verdict = "improved"
	case spread > m.bound*math.Abs(bm) && !allBetter:
		v.verdict = "unresolved"
	case better(bm, hm) && math.Abs(hm-bm) > m.bound*math.Abs(bm):
		v.verdict = "worse"
	default:
		v.verdict = "unchanged"
	}
	return v
}

func fmtDist(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

func ofWorkload(rs []*report, name string) []*report {
	var out []*report
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// medians lists each report's median of an end-to-end metric.
func medians(rs []*report, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.E2E[metric].Median
	}
	return out
}

// loadReports reads every ezperf_report line of the given output files,
// in file order.
func loadReports(paths []string) ([]*report, error) {
	var out []*report
	prefix := []byte(`{"ezperf_report":`)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 16<<20)
		found := false
		for sc.Scan() {
			if !bytes.HasPrefix(sc.Bytes(), prefix) {
				continue
			}
			var line struct {
				Report *report `json:"ezperf_report"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out = append(out, line.Report)
			found = true
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !found {
			return nil, fmt.Errorf("%s holds no ezperf report", path)
		}
	}
	return out, nil
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
