package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// worseBy is the share of a's value by which b is worse, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatable reports whether a count must be identical in every run of
// one seed. The exceptions are what depends on how many inserts the
// mixed workload's timed phase happened to fit: the bytes it stored, and
// its recovery counts, whose tail starts from B-trees shaped by those
// inserts.
func repeatable(w workload, count string) bool {
	return !(w.writer && (count == "stored_bytes" || strings.HasPrefix(count, "recovery_")))
}

// compareResults prints, per workload and end-to-end metric, the
// medians of a and b, how much worse b is, and the bound, and returns
// an error when b breaches a bound, fails an operation, or disagrees
// with a on a count that must repeat exactly.
func compareResults(out io.Writer, a, b *resultFile) error {
	var breaches []string
	fmt.Fprintf(out, "\n%-20s %-28s %14s %14s %9s %7s\n", "workload", "metric", "A median", "B median", "worse by", "bound")
	for _, w := range workloads {
		ra, rb := runsOf(a, w.name), runsOf(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			breaches = append(breaches, w.name+": missing from one side")
			continue
		}
		for _, m := range endToEnd {
			ma := median(pick(ra, m.name))
			mb := median(pick(rb, m.name))
			worse := worseBy(ma, mb, m.better)
			mark := ""
			if worse > m.bound {
				mark = "  BREACH"
				breaches = append(breaches, fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)", w.name, m.name, 100*worse, 100*m.bound))
			}
			fmt.Fprintf(out, "%-20s %-28s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.name, m.name, ma, mb, 100*worse, 100*m.bound, mark)
		}
		for _, r := range append(append([]runResult{}, ra...), rb...) {
			if err := r.failure(); err != nil {
				breaches = append(breaches, err.Error())
			}
		}
		if a.Recipe.Seed != b.Recipe.Seed || a.Recipe.Rows != b.Recipe.Rows {
			continue // counts are functions of the seed and the table
		}
		var names []string
		for k := range ra[0].Counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if !repeatable(w, k) {
				continue
			}
			for _, r := range append(ra[1:], rb...) {
				if r.Counts[k] != ra[0].Counts[k] {
					breaches = append(breaches, fmt.Sprintf("%s count %s differs: %d vs %d", w.name, k, ra[0].Counts[k], r.Counts[k]))
					break
				}
			}
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("compare: %d breaches:\n  %s", len(breaches), strings.Join(breaches, "\n  "))
	}
	fmt.Fprintln(out, "compare: every metric within its bound, every count identical, nothing failed")
	return nil
}

func runsOf(rf *resultFile, workload string) []runResult {
	var out []runResult
	for _, r := range rf.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func pick(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r.Metrics[metric])
	}
	return out
}
