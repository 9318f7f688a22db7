package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// verdict is the comparison of one end-to-end metric on one workload
// between a parent and a change.
type verdict struct {
	parent, change summary
	wins, pairs    int
	result         string // improved, unchanged, regressed or unresolved
}

// judge compares a change's runs with its parent's, one sample per run,
// paired in order. The change improved when there are at least minPairs
// pairs, it wins at least nine tenths of them (ties count for neither
// side), and its median is better than the parent's by more than the
// parent's quartile distance. Otherwise the result is unresolved when the
// run-to-run spread is unknown (a side has one run) or wider than the bound
// on either side, unless every change run beats every parent run or all
// runs read the same. Otherwise the change regressed when its median is
// worse than the parent's by more than the bound, and is unchanged when it
// is not.
func judge(def metricDef, parent, change []float64) verdict {
	v := verdict{parent: summarize(parent), change: summarize(change)}
	better := func(a, b float64) bool { return a < b }
	if def.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	gain := v.change.Median - v.parent.Median // > 0: change is better
	if def.Better != "higher" {
		gain = -gain
	}
	worse := 0.0 // share of the parent's median the change is worse by
	if v.parent.Median != 0 {
		worse = -gain / math.Abs(v.parent.Median)
	} else if gain < 0 {
		worse = math.Inf(1)
	}
	allBetter := len(parent) > 0 && len(change) > 0
	if def.Better == "higher" {
		allBetter = allBetter && slices.Min(change) > slices.Max(parent)
	} else {
		allBetter = allBetter && slices.Max(change) < slices.Min(parent)
	}
	all := slices.Concat(parent, change)
	allSame := len(all) > 0 && slices.Min(all) == slices.Max(all)
	noisy := len(parent) < 2 || len(change) < 2 || max(v.parent.spread(), v.change.spread()) > def.Bound
	switch {
	case v.pairs >= minPairs && v.wins*10 >= 9*v.pairs && gain > v.parent.Q3-v.parent.Q1:
		v.result = "improved"
	case noisy && !allBetter && !allSame:
		v.result = "unresolved"
	case worse > def.Bound:
		v.result = "regressed"
	default:
		v.result = "unchanged"
	}
	return v
}

// readReports reads the reports -json appended to path, one per line.
func readReports(path string) ([]runReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []runReport
	dec := json.NewDecoder(f)
	for {
		var r runReport
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return reps, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
}

// runValues returns, in report order, each run's value of one metric of
// one workload.
func runValues(reps []runReport, workload, name string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			for _, m := range w.Metrics {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// compareFiles prints the verdict of the change's reports (changePath)
// against the parent's (parentPath) for every end-to-end metric and
// workload both hold, one row per workload. It returns the number of
// regressed pairs.
func compareFiles(parentPath, changePath string, w io.Writer) (int, error) {
	parent, err := readReports(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := readReports(changePath)
	if err != nil {
		return 0, err
	}
	regressed := 0
	fmt.Fprintf(w, "%-17s %-12s %27s %27s %7s  %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, def := range endToEnd {
		for _, wl := range workloads {
			p, c := runValues(parent, wl.name, def.Name), runValues(change, wl.name, def.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(def, p, c)
			if v.result == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-17s %-12s %27s %27s %3d/%-3d  %s (bound %g%%)\n", def.Name, wl.name,
				fmtSummary(v.parent), fmtSummary(v.change), v.wins, v.pairs, v.result, 100*def.Bound)
		}
	}
	return regressed, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
