package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// series is one metric of one workload across runs: each value is one run's
// result, itself the median of that run's reps.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResult is everything the all-workload mode measured on one workload.
type workloadResult struct {
	Runs      int               `json:"runs"`
	Reps      int               `json:"reps"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Stamp     stamp                      `json:"stamp"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// fold appends one run's value of every metric of defs it measured.
func fold(res *runResult, defs []metricDef, into map[string]series) {
	for _, d := range defs {
		if vs, ok := res.Samples[d.Name]; ok {
			s := into[d.Name]
			s.Unit = d.Unit
			s.Values = append(s.Values, median(vs))
			into[d.Name] = s
		}
	}
}

// printMetrics prints one run's metrics by name: median, quartiles and rep
// count of each.
func printMetrics(w io.Writer, workload string, res *runResult, defs []metricDef) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		vs, ok := res.Samples[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t[q1 %.6g, q3 %.6g]\tn=%d\n", workload, d.Name,
			median(vs), d.Unit, quantile(vs, 0.25), quantile(vs, 0.75), len(vs))
	}
	tw.Flush()
}

// runAll is the all-workload mode: runs untraced passes over the workloads,
// interleaved round-robin so slow drift of the host spreads over all of
// them, then one traced run of each.
func runAll(opt runOpts, runs int, out string, st stamp) error {
	file := resultFile{Stamp: st, Seed: opt.seed, Seconds: opt.seconds, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		file.Workloads[w.name] = &workloadResult{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
	}
	for pass := 1; pass <= runs; pass++ {
		for _, w := range workloads {
			fmt.Printf("%s: run %d of %d\n", w.name, pass, runs)
			res, err := w.run(false, opt)
			if err != nil {
				return err
			}
			if err := res.check(endToEnd, true); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			wr := file.Workloads[w.name]
			wr.Runs++
			wr.Reps += res.Reps
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			fold(res, endToEnd, wr.EndToEnd)
			fold(res, perLayer, wr.PerLayer) // the time-based figures come from untraced reps too
		}
	}
	opt.traced, opt.minReps = true, 1
	for _, w := range workloads {
		fmt.Printf("%s: traced run\n", w.name)
		res, err := w.run(false, opt)
		if err != nil {
			return err
		}
		if err := res.check(perLayer, false); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fold(res, perLayer, file.Workloads[w.name].PerLayer)
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tq1\tq3\truns\treps")
	for _, w := range workloads {
		wr := file.Workloads[w.name]
		for _, set := range []struct {
			defs []metricDef
			from map[string]series
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range set.defs {
				s, ok := set.from[d.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t%d\n", w.name, d.Name, median(s.Values), s.Unit,
					quantile(s.Values, 0.25), quantile(s.Values, 0.75), len(s.Values), wr.Reps)
			}
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t\t\t\t\t\n", w.name, wr.Failed, wr.Attempted)
	}
	tw.Flush()
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// verdict judges one end-to-end metric of one workload: b against a.
//
//	regression  b's median is worse than a's by more than the bound
//	unresolved  the runs spread wider than the bound, so "no worse" cannot be told
//	            (unless every run of b reads better than every run of a)
//	ok          otherwise
func verdict(d metricDef, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	change = (mb - ma) / ma
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "higher" && y <= x) || (d.Better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > d.Bound:
		return change, "regression"
	case (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter:
		return change, "unresolved"
	}
	return change, "ok"
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// timed are the time-based metrics a comparison also judges, against
// timeBound, without letting them decide its outcome: on a noisy host they
// come out unresolved, which is then the honest answer. A claim about one of
// them rests on paired runs (choosing-metrics guide, section 8).
var timed = []string{"run_s", "msgs_per_s", "cpu_us_per_delivery", "lat_p50_ms", "lat_p90_ms"}

const timeBound = 0.10

// compareFiles prints, per workload and end-to-end metric, both medians and
// quartiles, the relative change and the verdict against the metric's bound,
// then the same for the unbounded time-based metrics. It reports whether
// any bounded metric regressed or stayed unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s commit %s, %d CPUs, %s\nb: %s commit %s, %d CPUs, %s\n",
		pathA, a.Stamp.Commit, a.Stamp.HostCPUs, a.Stamp.GoVersion, pathB, b.Stamp.Commit, b.Stamp.HostCPUs, b.Stamp.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tchange\tbound\tverdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		row := func(d metricDef, va, vb []float64, note string) string {
			if len(va) == 0 || len(vb) == 0 {
				return "ok"
			}
			change, v := verdict(d, va, vb)
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.2f%%\t%.0f%%\t%s%s\n", wl.name, d.Name,
				median(va), quantile(va, 0.25), quantile(va, 0.75),
				median(vb), quantile(vb, 0.25), quantile(vb, 0.75), 100*change, 100*d.Bound, v, note)
			return v
		}
		for _, d := range endToEnd {
			if row(d, ra.EndToEnd[d.Name].Values, rb.EndToEnd[d.Name].Values, "") != "ok" {
				bad = true
			}
		}
		for _, d := range perLayer {
			if slices.Contains(timed, d.Name) {
				d.Bound = timeBound
				row(d, ra.PerLayer[d.Name].Values, rb.PerLayer[d.Name].Values, " (unbounded)")
			}
		}
	}
	return bad, tw.Flush()
}
