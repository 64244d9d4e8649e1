// Command bench is the end-to-end and per-layer benchmark of the path a
// user hits: SQL text over the frame protocol into an in-process server,
// through the session, the planner, the lex plans, heap, B-trees, pager,
// MVCC and the WAL. See README.md in this directory.
//
//	bench -workload probe_indexed -seed 7 -seconds 12 -trace 0   one run, one JSON line (the BENCHMARK.json contract)
//	bench                                                          every workload, both passes, a report and out/result-1.json
//	bench -sets 2                                                  the same twice (or more), then -compare of odd against even sets (A/A check)
//	bench -compare A.json B.json                                   medians, differences and bounds; exit 1 on a breach
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"lexequal/internal/db"
	"lexequal/internal/wal"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off, every one on every workload. The failure share is
// not among them: it is the attempted/failed pair of every result.
// README.md says why the bounds are this wide.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_ops_per_s", "1/s", "higher", 0.25},
	{"read_lat_p50_ms", "ms", "lower", 0.25},
	{"read_lat_p95_ms", "ms", "lower", 0.25},
	{"write_ops_per_s", "1/s", "higher", 0.25},
	{"write_lat_p50_ms", "ms", "lower", 0.25},
	{"write_lat_p95_ms", "ms", "lower", 0.25},
	{"recall_vs_naive", "ratio", "higher", 0.15},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.15},
	{"recovery_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// perLayer are the traced pass's metrics, named after the internal/
// package they measure. A metric a workload never exercises reads 0.
var perLayer = []metricDef{
	{name: "server.wire_us_per_op", unit: "us", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.session_overhead_us", unit: "us", better: "lower"},
	{name: "ttp.convert_us_per_query", unit: "us", better: "lower"},
	{name: "ttp.cached_us_per_query", unit: "us", better: "lower"},
	{name: "db.plan_ns_per_row", unit: "ns", better: "lower"},
	{name: "db.row_decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "db.plan_residual_ns_per_row", unit: "ns", better: "lower"},
	{name: "db.rows_examined_per_result", unit: "ratio", better: "lower"},
	{name: "core.candidates_per_query", unit: "count", better: "lower"},
	{name: "core.matches_per_query", unit: "count", better: "higher"},
	{name: "core.select_ns_per_row", unit: "ns", better: "lower"},
	{name: "core.select_parallel_ns_per_row", unit: "ns", better: "lower"},
	{name: "qgram.pruned_frac", unit: "ratio", better: "higher"},
	{name: "qgram.sig_ns_per_row", unit: "ns", better: "lower"},
	{name: "qgram.admit_ns_per_row", unit: "ns", better: "lower"},
	{name: "store.heap_scan_ns_per_row", unit: "ns", better: "lower"},
	{name: "store.page_reads_per_query", unit: "count", better: "lower"},
	{name: "store.pager_hit_frac", unit: "ratio", better: "higher"},
	{name: "store.btree_seek_us", unit: "us", better: "lower"},
	{name: "store.btree_probes_per_query", unit: "count", better: "lower"},
	{name: "store.page_writes_per_commit", unit: "count", better: "lower"},
	{name: "phoneme.parse_ns_per_row", unit: "ns", better: "lower"},
	{name: "editdist.bitvec_ns_per_pair", unit: "ns", better: "lower"},
	{name: "editdist.scalar_ns_per_pair", unit: "ns", better: "lower"},
	{name: "editdist.decided_frac", unit: "ratio", better: "higher"},
	{name: "editdist.dp_cells_per_query", unit: "count", better: "lower"},
	{name: "db.insert_tx_us", unit: "us", better: "lower"},
	{name: "db.commit_ms", unit: "ms", better: "lower"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wal.syncs_per_commit", unit: "ratio", better: "lower"},
	{name: "db.checkpoints", unit: "count", better: "lower"},
	{name: "db.checkpoint_ms_p50", unit: "ms", better: "lower"},
	{name: "db.versions_gced", unit: "count", better: "higher"},
	{name: "db.mvcc_conflicts", unit: "count", better: "lower"},
	{name: "db.commit_registry_size", unit: "count", better: "lower"},
	{name: "db.recovery_records_scanned", unit: "count", better: "lower"},
	{name: "db.recovery_records_replayed", unit: "count", better: "lower"},
	{name: "db.recovery_pages_applied", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// config is one invocation's recipe. Everything but rows, seed and
// seconds is fixed; the tests shrink the fixed counts.
type config struct {
	rows    int
	seed    int64
	seconds float64
	outDir  string // results and traces
	workDir string // database directories, removed at exit

	queries     int // seeded queries, cycled by every reader
	setupReps   int // fixture builds per invocation; setup_s is their median
	tailCommits int // inserts of the durability tail
	// Operations the traced pass replays: queries of a scanning
	// workload, probes of probe_indexed, inserts and probes each of
	// insert_probe_mixed.
	scanOps, probeOps, writeOps int
}

func defaultConfig() *config {
	return &config{
		rows: 10000, seed: 1, seconds: 16, outDir: filepath.Join("bench", "out"),
		queries: 600, setupReps: 3, tailCommits: 1000,
		scanOps: 50, probeOps: 2000, writeOps: 1000,
	}
}

// inserts is how many insert rows the fixture carries: room for a
// writer several times faster than today's, plus the traced pass (three
// commits per replayed insert) and the tail.
func (c *config) inserts() int {
	return int(3000*c.seconds) + 3*c.writeOps + c.tailCommits
}

// slices is how many slices the timed phase is summarised over (see
// summarize): about 2 s each, two checkpoint intervals of the mixed
// workload.
func (c *config) slices() int {
	if c.seconds < 4 {
		return 1
	}
	return int(c.seconds / 2)
}

func (c *config) tracePath(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".json")
}

func main() {
	cfg := defaultConfig()
	flag.IntVar(&cfg.rows, "rows", cfg.rows, "rows loaded into the names table")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the query sample and the insert order")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed phase of each workload, in seconds")
	name := flag.String("workload", "", "run only this workload and print one JSON result line (needs -trace)")
	trace := flag.Int("trace", -1, "with -workload: 0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	sets := flag.Int("sets", 1, "run the whole benchmark this many times and compare the odd sets against the even ones")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
	flag.Parse()

	if err := run(cfg, *name, *trace, *sets, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, name string, trace, sets int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readResults(args[0])
		if err != nil {
			return err
		}
		b, err := readResults(args[1])
		if err != nil {
			return err
		}
		return compareResults(os.Stdout, a, b)
	}
	if cfg.seconds <= 0 || cfg.rows < 100 {
		return fmt.Errorf("-seconds must be positive and -rows at least 100")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work

	if name != "" {
		w, ok := workloadByName(name)
		if !ok || (trace != 0 && trace != 1) {
			return fmt.Errorf("-workload needs one of %s and -trace 0 or 1", workloadNames())
		}
		return runContract(cfg, w, trace == 1)
	}

	var files []*resultFile
	for set := 1; set <= sets; set++ {
		rf, err := runSet(cfg)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%d.json", set))
		if err := rf.write(path); err != nil {
			return err
		}
		rf.report(os.Stdout)
		fmt.Printf("\nwrote %s and %s\n", path, cfg.tracePath("<workload>"))
		files = append(files, rf)
	}
	for _, rf := range files {
		for _, r := range rf.Runs {
			if err := r.failure(); err != nil {
				return err
			}
		}
	}
	if sets > 1 {
		// Odd sets against even sets: alternating keeps a machine that
		// slows down over the minutes from looking like a regression.
		a, b := &resultFile{Recipe: files[0].Recipe}, &resultFile{Recipe: files[1].Recipe}
		for i, rf := range files {
			side := a
			if i%2 == 1 {
				side = b
			}
			side.Runs = append(side.Runs, rf.Runs...)
		}
		return compareResults(os.Stdout, a, b)
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runContract is one driver run: one workload, one pass, and as the
// last line of standard output one JSON object.
func runContract(cfg *config, w workload, traced bool) error {
	reps := cfg.setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric
	}
	f, setupS, err := setup(cfg, reps)
	if err != nil {
		return err
	}
	res, err := runWorkload(f, w, cfg, traced)
	if err != nil {
		return err
	}
	defs, values := endToEnd, res.Metrics
	if traced {
		defs, values = perLayer, res.Layers
	} else {
		values["setup_s"] = setupS
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s  seed %d  %g s  rows %d  heap %d pages  pool %d pages  GOMAXPROCS %d\n",
		w.name, cfg.seed, cfg.seconds, cfg.rows, f.heapPages, f.poolPages, runtime.GOMAXPROCS(0))
	fmt.Println(string(line))
	return res.failure()
}

// recipe is how a result was produced; it travels with every result.
type recipe struct {
	Command       string         `json:"command"`
	Seed          int64          `json:"seed"`
	Rows          int            `json:"rows"`
	Seconds       float64        `json:"seconds"`
	Clients       map[string]int `json:"clients"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"nproc"`
	HeapPages     int            `json:"names_heap_pages"`
	PoolPages     int            `json:"pool_pages_per_file"`
	GroupCommit   string         `json:"group_commit_window"`
	Checkpoint    string         `json:"checkpoint_interval_mixed"`
	AutoCkptBytes int64          `json:"auto_checkpoint_bytes"`
	TailCommits   int            `json:"tail_commits"`
	TraceOps      map[string]int `json:"traced_ops"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Recipe recipe      `json:"recipe"`
	Runs   []runResult `json:"runs"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// runSet builds the fixture and runs every workload, both passes.
func runSet(cfg *config) (*resultFile, error) {
	f, setupS, err := setup(cfg, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{Recipe: recipe{
		Command: "bash bench/run.sh", Seed: cfg.seed, Rows: cfg.rows, Seconds: cfg.seconds,
		Clients:    map[string]int{},
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		HeapPages: f.heapPages, PoolPages: f.poolPages,
		GroupCommit: wal.DefaultFlushInterval.String(), Checkpoint: checkpointInterval.String(),
		AutoCkptBytes: db.DefaultAutoCheckpointBytes, TailCommits: cfg.tailCommits,
		TraceOps: map[string]int{"scan": cfg.scanOps, "probe": cfg.probeOps, "mixed_each": cfg.writeOps},
	}}
	for _, w := range workloads {
		clients := w.readers
		if w.writer {
			clients++
		}
		rf.Recipe.Clients[w.name] = clients
		res, err := runWorkload(f, w, cfg, false)
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = setupS
		traced, err := runWorkload(f, w, cfg, true)
		if err != nil {
			return nil, err
		}
		// One row per workload: the traced pass adds its layers and
		// counts to the timed pass's result.
		res.Layers = traced.Layers
		for k, v := range traced.Counts {
			if _, dup := res.Counts[k]; !dup {
				res.Counts[k] = v
			}
		}
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		if res.FirstFail == "" {
			res.FirstFail = traced.FirstFail
		}
		rf.Runs = append(rf.Runs, *res)
	}
	return rf, nil
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// report prints every metric by name with its unit, one column per
// workload.
func (rf *resultFile) report(w io.Writer) {
	r := rf.Recipe
	fmt.Fprintf(w, "seed %d, %d rows, %g s timed per workload, GOMAXPROCS %d of %d CPUs\n", r.Seed, r.Rows, r.Seconds, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "names.heap %d pages against a %d-page pool per file; group commit %s, checkpoint every %s (mixed only), auto-checkpoint at %d WAL bytes\n",
		r.HeapPages, r.PoolPages, r.GroupCommit, r.Checkpoint, r.AutoCkptBytes)
	table := func(title string, defs []metricDef, pick func(runResult) map[string]float64) {
		fmt.Fprintf(w, "\n%-34s %-6s", title, "unit")
		for _, run := range rf.Runs {
			fmt.Fprintf(w, " %18s", run.Workload)
		}
		fmt.Fprintln(w)
		for _, m := range defs {
			fmt.Fprintf(w, "%-34s %-6s", m.name, m.unit)
			for _, run := range rf.Runs {
				fmt.Fprintf(w, " %18.6g", pick(run)[m.name])
			}
			fmt.Fprintln(w)
		}
	}
	table("end to end (tracing off)", endToEnd, func(r runResult) map[string]float64 { return r.Metrics })
	for _, class := range []string{"read", "write"} {
		fmt.Fprintf(w, "%-34s %-6s", class+" latency samples", "count")
		for _, run := range rf.Runs {
			fmt.Fprintf(w, " %18d", run.Samples[class])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %-6s", "failed / attempted", "count")
	for _, run := range rf.Runs {
		fmt.Fprintf(w, " %18s", fmt.Sprintf("%d / %d", run.Failed, run.Attempted))
	}
	fmt.Fprintln(w)
	table("per layer (traced pass)", perLayer, func(r runResult) map[string]float64 { return r.Layers })
	seen := map[string]bool{}
	var counts []string
	for _, run := range rf.Runs {
		for k := range run.Counts {
			if !seen[k] {
				seen[k] = true
				counts = append(counts, k)
			}
		}
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "\n%-41s", "counts that repeat exactly")
	for _, run := range rf.Runs {
		fmt.Fprintf(w, " %18s", run.Workload)
	}
	fmt.Fprintln(w)
	for _, k := range counts {
		fmt.Fprintf(w, "%-41s", k)
		for _, run := range rf.Runs {
			if v, ok := run.Counts[k]; ok {
				fmt.Fprintf(w, " %18d", v)
			} else {
				fmt.Fprintf(w, " %18s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
