package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseIDs reads the rendered result of a `SELECT id` statement: a
// header line, a rule line, then one id per line.
func parseIDs(resp string) ([]int64, error) {
	lines := strings.Split(strings.TrimRight(resp, "\n"), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "id" {
		return nil, fmt.Errorf("unexpected result header %q", lines[0])
	}
	ids := make([]int64, 0, len(lines)-2)
	for _, ln := range lines[2:] {
		id, err := strconv.ParseInt(strings.TrimSpace(ln), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("result line %q is not an id", ln)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// checkAnswer judges one answer against the golden ids of its query
// (ascending). Ids at or above rows belong to rows inserted during the
// run and are always admissible; any other id outside golden is foreign
// and makes the answer wrong. With exact set, a golden id that did not
// come back also makes it wrong (the naive and q-gram plans have no
// false dismissals; the phonetic index may). hits is the number of
// golden ids returned, the numerator of recall_vs_naive.
func checkAnswer(returned, golden []int64, rows int64, exact bool) (hits int, err error) {
	want := make(map[int64]bool, len(golden))
	for _, id := range golden {
		want[id] = true
	}
	seen := make(map[int64]bool, len(returned))
	for _, id := range returned {
		if seen[id] {
			return 0, fmt.Errorf("id %d returned twice", id)
		}
		seen[id] = true
		switch {
		case want[id]:
			hits++
		case id < rows:
			return 0, fmt.Errorf("foreign id %d", id)
		}
	}
	if exact && hits != len(golden) {
		for _, id := range golden {
			if !seen[id] {
				return hits, fmt.Errorf("missing id %d", id)
			}
		}
	}
	return hits, nil
}

// recallTally accumulates recall_vs_naive over the distinct queries of
// a run: the first answer to each query counts, so once every query has
// been asked the ratio is a function of the query set alone, however
// many times the closed loop got round it.
type recallTally struct {
	hits, golden []int
}

func newRecallTally(n int) *recallTally {
	t := &recallTally{hits: make([]int, n), golden: make([]int, n)}
	for i := range t.golden {
		t.golden[i] = -1
	}
	return t
}

func (t *recallTally) note(q, hits, golden int) {
	if t.golden[q] < 0 {
		t.hits[q], t.golden[q] = hits, golden
	}
}

func (t *recallTally) merge(o *recallTally) {
	for q := range o.golden {
		if o.golden[q] >= 0 {
			t.note(q, o.hits[q], o.golden[q])
		}
	}
}

func (t *recallTally) recall() (ratio float64, hits, golden int) {
	for q := range t.golden {
		if t.golden[q] >= 0 {
			hits += t.hits[q]
			golden += t.golden[q]
		}
	}
	if golden == 0 {
		return 0, 0, 0
	}
	return float64(hits) / float64(golden), hits, golden
}
