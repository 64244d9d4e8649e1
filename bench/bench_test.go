package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if err := enoughFor(0.95, 199); err == nil {
		t.Error("p95 of 199 samples was not refused")
	}
	if err := enoughFor(0.95, 200); err != nil {
		t.Errorf("p95 of 200 samples refused: %v", err)
	}
	if err := enoughFor(0.90, 100); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := nearestRank(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummarizeIgnoresAStall(t *testing.T) {
	// 1,000 operations of 10 ms back to back, a 2 s stall in the middle
	// of which one operation bears the whole, and 60 operations around it
	// slowed to 40 ms: one slice of ten is spoiled.
	var samples []sample
	at := 0.0
	for i := 0; i < 1000; i++ {
		lat := 10.0
		switch {
		case i == 500:
			lat = 2000
		case i > 470 && i < 530:
			lat = 40
		}
		at += lat / 1000
		samples = append(samples, sample{at: at, lat: lat, ok: i != 7})
	}
	sum, err := summarize(samples, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.samples != 1000 || sum.p50 != 10 || sum.p95 != 10 {
		t.Errorf("summary %+v, want 1000 samples with p50 and p95 of 10 ms", sum)
	}
	if sum.rate < 99.99 || sum.rate > 100.01 {
		t.Errorf("rate %v, want 100/s", sum.rate)
	}
	// The wrong answer is no throughput: its slice, the first, is below 100/s.
	one, err := summarize(samples[:200], 1)
	if err != nil || one.rate > 99.6 {
		t.Errorf("one slice with a wrong answer: rate %v, %v; want 199 correct in 2 s", one.rate, err)
	}
	if _, err := summarize(samples[:199], 1); err == nil {
		t.Error("a p95 of 199 samples was not refused")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a: [10,60) is covered once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // sticks out of root: only [90,100) counts
		{Name: "leaf", Start: 12, End: 20, Parent: 1}, // a grandchild covers nothing of root
	}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.do("op", func() { tr.do("child", func() {}) })
	tr.do("op", func() {})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if s := tr.spans[1]; s.Parent != 0 || s.Op != 1 {
		t.Errorf("child span has parent %d op %d, want 0 and 1", s.Parent, s.Op)
	}
	if s := tr.spans[2]; s.Parent != -1 || s.Op != 2 {
		t.Errorf("second root has parent %d op %d, want -1 and 2", s.Parent, s.Op)
	}
}

func TestCheckAnswer(t *testing.T) {
	golden := []int64{3, 7, 9}
	const rows = 100
	cases := []struct {
		name     string
		returned []int64
		exact    bool
		hits     int
		wantErr  string
	}{
		{"all golden", []int64{9, 3, 7}, true, 3, ""},
		{"new-row id is admissible", []int64{3, 7, 9, 100, 250}, true, 3, ""},
		{"foreign id", []int64{3, 7, 9, 42}, false, 0, "foreign id 42"},
		{"missing id, exact plan", []int64{3, 9}, true, 2, "missing id 7"},
		{"missing id, index plan (a false dismissal)", []int64{3, 9}, false, 2, ""},
		{"duplicate", []int64{3, 3}, false, 0, "returned twice"},
	}
	for _, c := range cases {
		hits, err := checkAnswer(c.returned, golden, rows, c.exact)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		case hits != c.hits:
			t.Errorf("%s: %d hits, want %d", c.name, hits, c.hits)
		}
	}
}

func TestParseIDs(t *testing.T) {
	ids, err := parseIDs("id\n--\n12\n 7\n")
	if err != nil || len(ids) != 2 || ids[0] != 12 || ids[1] != 7 {
		t.Errorf("parseIDs = %v, %v", ids, err)
	}
	if ids, err := parseIDs("id\n--\n"); err != nil || len(ids) != 0 {
		t.Errorf("empty result: %v, %v", ids, err)
	}
	for _, bad := range []string{"", "name\n----\nx\n", "id\n--\nseven\n"} {
		if _, err := parseIDs(bad); err == nil {
			t.Errorf("parseIDs(%q) accepted", bad)
		}
	}
}

func TestRecallTallyCountsEachQueryOnce(t *testing.T) {
	a, b := newRecallTally(3), newRecallTally(3)
	a.note(0, 1, 2)
	a.note(0, 2, 2) // a second answer to the same query does not count
	b.note(0, 1, 2)
	b.note(2, 4, 4)
	a.merge(b)
	if ratio, hits, golden := a.recall(); hits != 5 || golden != 6 || ratio != 5.0/6 {
		t.Errorf("recall = %v (%d/%d), want 5/6", ratio, hits, golden)
	}
}

// compareFiles builds two one-run result files that differ in one
// end-to-end metric and, optionally, one count.
func compareFiles(metric string, a, b float64, countA, countB int64) (*resultFile, *resultFile) {
	mk := func(v float64, count int64) *resultFile {
		rf := &resultFile{Recipe: recipe{Seed: 1, Rows: 100}}
		for _, w := range workloads {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.name] = 1
			}
			rf.Runs = append(rf.Runs, runResult{Workload: w.name, Attempted: 10, Metrics: m,
				Counts: map[string]int64{"trace_rows": 5, "recovery_pages_applied": 7}})
		}
		rf.Runs[0].Metrics[metric] = v
		rf.Runs[0].Counts["trace_rows"] = count
		return rf
	}
	return mk(a, countA), mk(b, countB)
}

func TestCompareBounds(t *testing.T) {
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.name] = m.bound
	}
	cases := []struct {
		name, metric string
		worse        float64 // b against a, as a share of the metric's bound
		breach       bool
	}{
		{"latency worse by 0.9 of its bound", "read_lat_p50_ms", 0.9, false},
		{"latency worse by 1.1 of its bound", "read_lat_p50_ms", 1.1, true},
		{"latency much better", "read_lat_p50_ms", -3, false},
		{"throughput lower by 1.1 of its bound", "read_ops_per_s", 1.1, true},
		{"throughput lower by 0.9 of its bound", "read_ops_per_s", 0.9, false},
		{"throughput higher", "read_ops_per_s", -3, false},
		{"recall lower by 1.1 of its bound", "recall_vs_naive", 1.1, true},
		{"space larger by 1.1 of its bound", "stored_bytes_per_user_byte", 1.1, true},
	}
	for _, c := range cases {
		change := c.worse * bound[c.metric]
		for _, m := range endToEnd {
			if m.name == c.metric && m.better == "higher" {
				change = -change
			}
		}
		a, b := compareFiles(c.metric, 100, 100*(1+change), 5, 5)
		err := compareResults(io.Discard, a, b)
		if (err != nil) != c.breach {
			t.Errorf("%s: compare error %v, want breach %v", c.name, err, c.breach)
		}
	}
}

func TestCompareCountsAndFailures(t *testing.T) {
	a, b := compareFiles("read_lat_p50_ms", 1, 1, 5, 6)
	if err := compareResults(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "trace_rows") {
		t.Errorf("differing count not reported: %v", err)
	}
	// Another seed draws other queries: counts are then not comparable.
	b.Recipe.Seed = 2
	if err := compareResults(io.Discard, a, b); err != nil {
		t.Errorf("counts compared across seeds: %v", err)
	}
	// The mixed workload's recovery counts depend on how many inserts
	// its timed phase fitted, so they alone may differ.
	a, b = compareFiles("read_lat_p50_ms", 1, 1, 5, 5)
	last := len(b.Runs) - 1
	b.Runs[last].Counts["recovery_pages_applied"] = 8
	if err := compareResults(io.Discard, a, b); err != nil {
		t.Errorf("mixed workload's recovery count held to repeat: %v", err)
	}
	b.Runs[1].Counts["recovery_pages_applied"] = 8
	if err := compareResults(io.Discard, a, b); err == nil {
		t.Error("read-only workload's recovery count may not differ")
	}
	a, b = compareFiles("read_lat_p50_ms", 1, 1, 5, 5)
	b.Runs[2].Failed, b.Runs[2].FirstFail = 1, "foreign id 4"
	if err := compareResults(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "foreign id 4") {
		t.Errorf("failed operation not reported: %v", err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the harness
// reports from: the driver refuses a result whose metrics differ from it.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultConfig().seconds {
		t.Errorf("run_seconds %v, harness default %v", spec.RunSeconds, defaultConfig().seconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, got, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, harness has %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: %+v, harness has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s metric %s: bound %v, harness has %v", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd, true)
	same("per-layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, both passes, durability tail included,
// on a small table, then compares the set with itself.
func TestSmoke(t *testing.T) {
	cfg := defaultConfig()
	cfg.rows, cfg.seconds, cfg.queries = 1000, smokeSeconds, 40
	cfg.setupReps, cfg.tailCommits = 1, 200
	cfg.scanOps, cfg.probeOps, cfg.writeOps = 5, 40, 20
	cfg.outDir = t.TempDir()
	cfg.workDir = filepath.Join(cfg.outDir, "work")
	rf, err := runSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rf.Runs {
		if r.Failed > 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstFail)
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", r.Workload, m.name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := r.Layers[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Workload, m.name)
			}
		}
		if _, err := os.Stat(cfg.tracePath(r.Workload)); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := rf.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(io.Discard, rf, back); err != nil {
		t.Errorf("a set does not compare equal to itself: %v", err)
	}
	rf.report(io.Discard)
}
