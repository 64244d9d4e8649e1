package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/server"
	"lexequal/internal/store"
)

// workload is one closed-loop traffic mix. Reader clients cycle the
// seeded queries; a writer client, where there is one, sends the seeded
// single-row autocommit INSERTs in order.
type workload struct {
	name     string
	readers  int
	writer   bool
	strategy core.Strategy
	workers  int  // verification parallelism; 0 = every core
	exact    bool // the plan has no false dismissals: every golden id must come back
	why      string
}

// resolvedWorkers is the SET parallelism value: the db plans read 0 as
// serial (only the in-memory corpus reads it as GOMAXPROCS), so "every
// core" has to be spelled out.
func (w workload) resolvedWorkers() int {
	if w.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w.workers
}

// sets are the session settings a workload's readers run under.
func (w workload) sets() []string {
	return []string{
		"SET lexequal_strategy = " + w.strategy.String(),
		fmt.Sprintf("SET parallelism = %d", w.resolvedWorkers()),
	}
}

var workloads = []workload{
	{
		name: "scan_naive", readers: 1, strategy: core.Naive, workers: 0, exact: true,
		why: "paper Table 1 UDF scan over a heap larger than the buffer pool: store, row decode, phoneme parse, prefilter and kernel do the work; parse, plan and wire do none",
	},
	{
		name: "filter_qgram", readers: 2, strategy: core.QGram, workers: 1, exact: true,
		why: "paper Table 2: thousands of covering-index B-tree probes per query from two sessions contending on latches and the pager mutex, instead of the heap scan",
	},
	{
		name: "probe_indexed", readers: 2, strategy: core.Indexed, workers: 1,
		why: "paper Table 3, fits in pool: microseconds of engine work, so parse, plan, TTP, snapshot and the frame round trip dominate; bypasses every scan optimisation; carries recall_vs_naive",
	},
	{
		name: "insert_probe_mixed", readers: 1, writer: true, strategy: core.Indexed, workers: 1,
		why: "autocommit INSERTs beside the indexed probe loop with 1 s checkpoints: WAL append and fsync, page images, MVCC visibility and version GC under a reader",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// flush policy of the mixed workload's server, stated in every report.
const checkpointInterval = time.Second

// instance is one in-process server over one database directory.
type instance struct {
	d   *db.DB
	srv *server.Server
}

func startInstance(dir string, f *fixture, ckpt time.Duration) (*instance, error) {
	op := f.op
	d, err := db.OpenWithCache(dir, f.poolPages)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(d, op, server.Config{
		CheckpointInterval: ckpt,
		Logf:               func(string, ...any) {},
	})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	return &instance{d: d, srv: srv}, nil
}

// dial opens a client and applies session settings.
func (in *instance) dial(sets []string) (*server.Client, error) {
	c, err := server.Dial(in.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	for _, s := range sets {
		if _, err := c.Query(s); err != nil {
			return nil, errors.Join(fmt.Errorf("%s: %w", s, err), c.Close())
		}
	}
	return c, nil
}

// opClass is what one client observed of one operation class.
type opClass struct {
	samples   []sample // operations completed at or after the timed start
	attempted int      // every phase
	failed    int
	firstFail string
}

func (o *opClass) fail(format string, args ...any) {
	o.failed++
	if o.firstFail == "" {
		o.firstFail = fmt.Sprintf(format, args...)
	}
}

func (o *opClass) merge(p opClass) {
	o.samples = append(o.samples, p.samples...)
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstFail == "" {
		o.firstFail = p.firstFail
	}
}

// stamp keeps an operation that completed at or after the timed start.
func (o *opClass) stamp(timed, start, done time.Time, ok bool) {
	if !done.Before(timed) {
		o.samples = append(o.samples, sample{at: done.Sub(timed).Seconds(), lat: ms(done.Sub(start)), ok: ok})
	}
}

// answer counts one response to query qi: parsed, checked against the
// golden ids, tallied for recall. It reports whether the answer was right.
func (o *opClass) answer(f *fixture, w workload, qi int, resp string, err error, tally *recallTally) bool {
	q := &f.queries[qi]
	o.attempted++
	var hits int
	if err == nil {
		var ids []int64
		if ids, err = parseIDs(resp); err == nil {
			hits, err = checkAnswer(ids, q.golden, int64(f.rows), w.exact)
		}
	}
	if err != nil {
		o.fail("%s: %v", q.sql, err)
		return false
	}
	tally.note(qi, hits, len(q.golden))
	return true
}

// readLoop is one reading client: query, check, repeat until end.
func readLoop(c *server.Client, f *fixture, w workload, first int, timed, end time.Time, tally *recallTally) opClass {
	var st opClass
	for i := first; ; i++ {
		start := time.Now()
		if !start.Before(end) {
			return st
		}
		qi := i % len(f.queries)
		resp, err := c.Query(f.queries[qi].sql)
		done := time.Now()
		st.stamp(timed, start, done, st.answer(f, w, qi, resp, err, tally))
	}
}

// writeLoop is the writing client: it sends the unused insert rows in
// order until end (or until limit rows are acknowledged, when limit > 0).
func (e *env) writeLoop(c *server.Client, limit int, timed, end time.Time) opClass {
	var st opClass
	before := len(e.acked)
	for e.nextInsert < len(e.f.inserts) {
		start := time.Now()
		if !start.Before(end) || (limit > 0 && len(e.acked)-before >= limit) {
			break
		}
		row := e.f.inserts[e.nextInsert]
		e.nextInsert++
		_, err := c.Query(row.sql)
		done := time.Now()
		st.stamp(timed, start, done, e.noteWrite(&st, row, err))
	}
	return st
}

// runResult is everything one workload run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstFail string             `json:"first_failure,omitempty"`
	Metrics   map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	// Counts must repeat exactly between runs of one seed (see
	// repeatable for the exception).
	Counts map[string]int64 `json:"counts"`
}

// env is one workload's running state: its private copy of the fixture,
// the server over it, the connected clients, and the ledger of inserts.
type env struct {
	f   *fixture
	w   workload
	cfg *config
	dir string
	in  *instance

	readers []*server.Client
	writer  *server.Client // nil without a writing client

	nextInsert int         // next unused row of f.inserts
	acked      []insertRow // every acknowledged insert, any phase

	// Bookkeeping of the traced pass, which checks answers one by one.
	read, write opClass
	tally       *recallTally
}

func (e *env) checkRead(qi int, resp string, err error) {
	e.read.answer(e.f, e.w, qi, resp, err, e.tally)
}

// noteWrite counts one insert toward o and, when acknowledged, toward
// the ledger the recovered image is checked against.
func (e *env) noteWrite(o *opClass, row insertRow, err error) bool {
	o.attempted++
	if err != nil {
		o.fail("insert %d: %v", row.id, err)
		return false
	}
	e.acked = append(e.acked, row)
	return true
}

// runWorkload runs one workload on a fresh copy of the fixture: the
// timed closed loop (traced false: end-to-end metrics, all but setup_s)
// or the traced replay (traced true: per-layer metrics), then the
// space measurement and the durability tail either way.
func runWorkload(f *fixture, w workload, cfg *config, traced bool) (*runResult, error) {
	e := &env{f: f, w: w, cfg: cfg, dir: filepath.Join(cfg.workDir, w.name), tally: newRecallTally(len(f.queries))}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := copyDir(f.dir, e.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)

	ckpt := time.Duration(0)
	if w.writer {
		ckpt = checkpointInterval
	}
	var err error
	if e.in, err = startInstance(e.dir, f, ckpt); err != nil {
		return nil, err
	}
	defer func() {
		if e.in != nil {
			e.in.srv.Shutdown()
		}
	}()
	for i := 0; i < w.readers; i++ {
		c, err := e.in.dial(w.sets())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		e.readers = append(e.readers, c)
	}
	if w.writer {
		if e.writer, err = e.in.dial(nil); err != nil {
			return nil, err
		}
		defer e.writer.Close()
	}

	res := &runResult{Workload: w.name, Counts: map[string]int64{}}
	if traced {
		p, err := newLayerPass(e)
		if err != nil {
			return nil, err
		}
		if err := p.run(res); err != nil {
			return nil, err
		}
	} else if err := e.timedPhase(res); err != nil {
		return nil, err
	}
	res.add(e.read)
	recall, hits, golden := e.tally.recall()
	if w.exact {
		if recall != 1 {
			return nil, fmt.Errorf("%s: recall_vs_naive = %d/%d, must be 1", w.name, hits, golden)
		}
	} else {
		// An index probe is quick enough that every query is asked, so
		// these are functions of the query set alone.
		res.Counts["recall_hits"] = int64(hits)
		res.Counts["recall_golden"] = int64(golden)
	}

	// Space: what the directory holds once the server has shut down
	// (a final checkpoint, then a close that empties the log), over the
	// bytes of name values a user stored. Measured under a running server
	// the figure is mostly whatever part of its 16 MiB tail segment the
	// log had reached.
	err = e.in.srv.Shutdown()
	e.in = nil
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	stored, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	user := f.userBytes
	for _, r := range e.acked {
		user += int64(r.nameBytes)
	}

	// The durability tail restarts the server on the same directory.
	tail, err := e.durabilityTail()
	if err != nil {
		return nil, err
	}
	res.add(e.write)
	res.add(tail.writes)
	res.Failed += tail.lost // acknowledged, so already counted as attempted
	if res.FirstFail == "" {
		res.FirstFail = tail.firstFail
	}
	if traced {
		res.Layers["db.recovery_records_scanned"] = float64(tail.redo.Scanned)
		res.Layers["db.recovery_records_replayed"] = float64(tail.redo.Replayed)
		res.Layers["db.recovery_pages_applied"] = float64(tail.redo.Applied)
		return res, nil
	}
	res.Counts["recovery_records_scanned"] = int64(tail.redo.Scanned)
	res.Counts["recovery_records_replayed"] = int64(tail.redo.Replayed)
	res.Counts["recovery_pages_applied"] = int64(tail.redo.Applied)
	res.Metrics["recall_vs_naive"] = recall
	res.Metrics["stored_bytes_per_user_byte"] = float64(stored) / float64(user)
	res.Counts["stored_bytes"] = stored
	res.Metrics["recovery_s"] = tail.recoveryS
	// A read-only workload has no writes of its own; its write figures
	// are the tail's solo writer on its database.
	writes, slices := tail.writes, tailSlices
	if w.writer {
		writes, slices = e.write, cfg.slices()
	}
	if err := res.addLatency("write", writes, slices); err != nil {
		return nil, err
	}
	return res, nil
}

// timedPhase is the untraced closed loop: warm-up, then cfg.seconds of
// measurement, every client on its own goroutine and connection.
func (e *env) timedPhase(res *runResult) error {
	f, w := e.f, e.w
	// Setup garbage (the reference corpus, the fixture builds) must not
	// count toward the workload's memory.
	debug.FreeOSMemory()

	warm := time.Duration(e.cfg.seconds / 4 * float64(time.Second))
	if warm > 3*time.Second {
		warm = 3 * time.Second
	}
	timed := time.Now().Add(warm)
	end := timed.Add(time.Duration(e.cfg.seconds * float64(time.Second)))

	reads := make([]opClass, w.readers)
	tallies := make([]*recallTally, w.readers)
	var wg sync.WaitGroup
	for i := range e.readers {
		tallies[i] = newRecallTally(len(f.queries))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reads[i] = readLoop(e.readers[i], f, w, i*len(f.queries)/w.readers, timed, end, tallies[i])
		}(i)
	}
	if w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.write = e.writeLoop(e.writer, 0, timed, end)
		}()
	}
	time.Sleep(time.Until(timed))
	// Peak resident set of this process, harness and server, over the
	// timed phase.
	peak := 0.0
	stop := every(10*time.Millisecond, func() {
		if r := readRSSMiB(); r > peak {
			peak = r
		}
	})
	wg.Wait()
	stop()
	res.Metrics = map[string]float64{"peak_rss_mib": peak}
	res.Samples = map[string]int{}
	for i := range reads {
		e.read.merge(reads[i])
		e.tally.merge(tallies[i])
	}
	return res.addLatency("read", e.read, e.cfg.slices())
}

// failure is nil when every operation of the run succeeded.
func (r *runResult) failure() error {
	if r.Failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed, first: %s", r.Workload, r.Failed, r.Attempted, r.FirstFail)
}

// add counts one operation class toward attempted and failed.
func (r *runResult) add(o opClass) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if r.FirstFail == "" {
		r.FirstFail = o.firstFail
	}
}

// addLatency reports one operation class under the metric names
// <class>_ops_per_s, <class>_lat_p50_ms and <class>_lat_p95_ms.
func (r *runResult) addLatency(class string, o opClass, slices int) error {
	sum, err := summarize(o.samples, slices)
	if err != nil {
		return fmt.Errorf("%s: %s latency: %w", r.Workload, class, err)
	}
	r.Samples[class] = sum.samples
	r.Metrics[class+"_ops_per_s"] = sum.rate
	r.Metrics[class+"_lat_p50_ms"] = sum.p50
	r.Metrics[class+"_lat_p95_ms"] = sum.p95
	return nil
}

// tailResult is what the durability tail measured.
type tailResult struct {
	writes    opClass
	recoveryS float64
	redo      db.RedoSummary
	lost      int // acknowledged inserts missing from the recovered image
	firstFail string
}

const (
	// tailSlices is how many slices the tail's inserts are summarised
	// over (see summarize).
	tailSlices = 5
	// recoveryReps is how many copies of the kill image are recovered;
	// recovery_s is the median, one db.Open being a few tens of
	// milliseconds that a single stall doubles.
	recoveryReps = 5
)

// durabilityTail is the fixed recovery experiment every workload ends
// with: restart the server on the workload's directory with the
// checkpointer off, CHECKPOINT, exactly cfg.tailCommits acknowledged
// autocommit inserts from one client, copy the live directory (what
// kill -9 would leave), and db.Open copies of the copy. Every insert
// acknowledged at any point of the workload must be in the recovered
// image, and Check and CheckWAL must be clean.
func (e *env) durabilityTail() (*tailResult, error) {
	in, err := startInstance(e.dir, e.f, 0)
	if err != nil {
		return nil, fmt.Errorf("tail: restart: %w", err)
	}
	defer in.srv.Shutdown()
	c, err := in.dial(nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Query("CHECKPOINT"); err != nil {
		return nil, fmt.Errorf("tail: checkpoint: %w", err)
	}
	t := &tailResult{}
	n := e.cfg.tailCommits
	start := time.Now()
	t.writes = e.writeLoop(c, n, start, start.Add(time.Hour))
	if got := t.writes.attempted - t.writes.failed; got != n {
		return nil, fmt.Errorf("tail: %d of %d inserts acknowledged (%s)", got, n, t.writes.firstFail)
	}

	image := filepath.Join(e.cfg.workDir, "killimage")
	if err := copyDir(e.dir, image); err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	var times []float64
	for rep := 0; rep < recoveryReps; rep++ {
		s, err := e.recoverImage(image, t, rep == 0)
		if err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	t.recoveryS = median(times)
	return t, nil
}

// recoverImage opens a copy of the kill image, which recovers it, and
// returns the seconds db.Open took. With check set it also looks for
// every acknowledged insert and runs the integrity checks; otherwise it
// only holds the recovery counts to the first copy's.
func (e *env) recoverImage(image string, t *tailResult, check bool) (float64, error) {
	dir := image + "-open"
	if err := copyDir(image, dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	rec, err := db.OpenWithCache(dir, e.f.poolPages)
	if err != nil {
		return 0, fmt.Errorf("tail: recover kill image: %w", err)
	}
	seconds := time.Since(start).Seconds()
	defer rec.Close()
	if !check {
		if redo := rec.RecoveryStats().Redo; redo != t.redo {
			return 0, fmt.Errorf("tail: recovery of one image counted %+v, then %+v", t.redo, redo)
		}
		return seconds, nil
	}
	t.redo = rec.RecoveryStats().Redo

	names, ok := rec.Table("names")
	if !ok {
		return 0, errors.New("tail: recovered image has no names table")
	}
	present := map[int64]bool{}
	err = names.Scan(func(_ store.RID, row db.Row) error {
		if id := row[0].I; id >= int64(e.f.rows) {
			present[id] = true
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("tail: scan recovered names: %w", err)
	}
	for _, r := range e.acked {
		if !present[r.id] {
			t.lost++
			if t.firstFail == "" {
				t.firstFail = fmt.Sprintf("acknowledged insert %d lost in recovery", r.id)
			}
		}
	}
	if issues := append(rec.Check(), rec.CheckWAL()...); len(issues) > 0 {
		// A damaged image puts every acknowledged insert in doubt.
		t.lost = len(e.acked)
		t.firstFail = "recovered image: " + issues[0].String()
	}
	return seconds, nil
}
