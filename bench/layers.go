package main

import (
	"fmt"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/editdist"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
	"lexequal/internal/soundex"
	"lexequal/internal/sql"
	"lexequal/internal/store"
	"lexequal/internal/ttp"
)

// samples collects per-operation values of the per-layer metrics; each
// metric is reported as the median over the replayed operations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerPass is the traced pass over one workload's server: a single
// goroutine replays a fixed number of the workload's operations and,
// for each, calls down the stack by hand — the statement over the wire,
// the same statement through an in-process session, the parser alone,
// the plan alone, then the storage, phoneme, prefilter and kernel calls
// the plan makes — with a span around each call. Layer costs are the
// differences between adjacent calls.
type layerPass struct {
	e    *env
	tr   *tracer
	vals samples

	sess  *sql.Session
	cfg   *db.LexConfig
	pc    metrics.PipelineCounters
	names *db.Table
	enc   *soundex.Encoder

	// The stored representation of the loaded rows, read back once, and
	// what the naive plan derives from it on every query.
	pnames []string
	phons  []phoneme.String
	batch  *core.Batch
	bv     *editdist.Bitvec
	corpus *core.Corpus

	tracedWire []float64 // ms, the server.query spans of read operations
	commits    int
	userBytes  int
	walBytes   int64
	walCommits int
	totals     core.Stats
	breaches   []string
}

func (p *layerPass) breach(format string, args ...any) {
	p.breaches = append(p.breaches, fmt.Sprintf(format, args...))
}

func newLayerPass(e *env) (*layerPass, error) {
	d, op := e.in.d, e.f.op
	p := &layerPass{e: e, tr: newTracer(), vals: samples{}, enc: soundex.NewEncoder(op.Clusters())}
	var err error
	if p.sess, err = sql.NewSession(d, op); err != nil {
		return nil, err
	}
	for _, s := range e.w.sets() {
		if _, err := p.sess.Exec(s); err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	if p.cfg, err = db.ResolveLexConfig(d, "names", op); err != nil {
		return nil, err
	}
	if p.cfg.IDIndex == nil || p.cfg.GroupIndex == nil || p.cfg.CoverIndex == nil {
		return nil, fmt.Errorf("fixture lacks an index the plans need")
	}
	p.cfg.Workers = e.w.resolvedWorkers()
	p.cfg.Counters = &p.pc
	p.names = p.cfg.Table

	p.pnames = make([]string, e.f.rows)
	err = p.names.Scan(func(_ store.RID, row db.Row) error {
		if id := row[p.cfg.IDCol].I; id < int64(e.f.rows) {
			p.pnames[id] = row[p.cfg.PhonCol].S
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.phons = make([]phoneme.String, len(p.pnames))
	for i, s := range p.pnames {
		p.phons[i] = phoneme.ParseLenient(s)
	}
	p.batch = op.BuildBatch(p.phons, core.KernelAuto, p.cfg.Q)
	p.bv, _ = editdist.NewBitvec(op.Cost())
	if p.corpus, err = op.NewCorpus(e.f.texts); err != nil {
		return nil, err
	}
	return p, nil
}

// pagerTotals sums the I/O counters of the pagers a lex plan touches.
func (p *layerPass) pagerTotals() (reads, writes, hits, misses uint64) {
	for _, pg := range []*store.Pager{
		p.names.Heap.Pager(), p.cfg.IDIndex.Tree.Pager(),
		p.cfg.GroupIndex.Tree.Pager(), p.cfg.CoverIndex.Tree.Pager(),
	} {
		r, w, h, m := pg.Stats()
		reads, writes, hits, misses = reads+r, writes+w, hits+h, misses+m
	}
	return
}

// readOp replays one query down the stack.
func (p *layerPass) readOp(qi int) {
	e, d, op, tr := p.e, p.e.in.d, p.e.f.op, p.tr
	qi %= len(e.f.queries)
	q := &e.f.queries[qi]
	rowsInTable := float64(p.names.Count())
	tr.do("op", func() {
		var resp string
		var err error
		wire := tr.do("server.query", func() { resp, err = e.readers[0].Query(q.sql) })
		e.checkRead(qi, resp, err)
		p.tracedWire = append(p.tracedWire, ms(wire))

		var res *sql.Result
		exec := tr.do("sql.exec", func() { res, err = p.sess.Exec(q.sql) })
		if err != nil {
			p.breach("in-process %s: %v", q.sql, err)
			return
		}
		parse := tr.do("sql.parse", func() { _, err = sql.Parse(q.sql) })
		p.vals.add("server.wire_us_per_op", us(wire-exec))
		p.vals.add("server.resp_bytes_per_op", float64(len(resp)+1))
		p.vals.add("sql.parse_us", us(parse))

		var qp phoneme.String
		cold := tr.do("ttp.convert", func() { qp, err = ttp.Default().Convert(q.text.Value, q.text.Lang) })
		warm := tr.do("ttp.cached", func() { _, err = op.Transform(q.text.Value, q.text.Lang) })
		p.vals.add("ttp.convert_us_per_query", us(cold))
		p.vals.add("ttp.cached_us_per_query", us(warm))

		// The plan alone, under the lock and snapshot a session would hold.
		before := p.pc.Snapshot()
		r0, _, h0, m0 := p.pagerTotals()
		var rows []db.Row
		d.QueryLock().RLock()
		p.cfg.Snap = d.AcquireSnap()
		plan := tr.do("db.plan", func() {
			var node db.Node
			switch e.w.strategy {
			case core.QGram:
				node = db.NewLexScanQGram(p.cfg, q.text, threshold, nil)
			case core.Indexed:
				node = db.NewLexScanIndexed(p.cfg, q.text, threshold, nil)
			default:
				node = db.NewLexScanNaive(p.cfg, q.text, threshold, nil)
			}
			rows, err = db.Collect(node)
		})
		d.ReleaseSnap(p.cfg.Snap)
		d.QueryLock().RUnlock()
		if err != nil {
			p.breach("plan for %s: %v", q.text, err)
			return
		}
		if len(rows) != len(res.Rows) {
			p.breach("%s: direct plan returns %d rows, session %d", q.text, len(rows), len(res.Rows))
		}
		r1, _, h1, m1 := p.pagerTotals()
		after := p.pc.Snapshot()
		st := core.Stats{
			Rows: int(after.Rows - before.Rows), Candidates: int(after.Candidates - before.Candidates),
			Matches:      int(after.Matches - before.Matches),
			PrunedLength: int(after.PrunedLength - before.PrunedLength),
			PrunedCount:  int(after.PrunedCount - before.PrunedCount),
			PrunedSig:    int(after.PrunedSig - before.PrunedSig),
			DPCells:      after.DPCells - before.DPCells, BitvecOps: after.BitvecOps - before.BitvecOps,
			ScalarFallbacks: int(after.ScalarFallbacks - before.ScalarFallbacks),
		}
		p.totals.Add(st)
		// Ledgers: every probed row is pruned by exactly one filter or
		// becomes a candidate; every pager miss is one physical read.
		if st.Rows != st.PrunedLength+st.PrunedCount+st.PrunedSig+st.Candidates {
			p.breach("%s: pipeline ledger: rows %d != pruned %d+%d+%d + candidates %d", q.text,
				st.Rows, st.PrunedLength, st.PrunedCount, st.PrunedSig, st.Candidates)
		}
		if e.w.strategy == core.Naive && st.Rows != st.PrunedSig+st.Candidates {
			p.breach("%s: naive ledger: rows %d != pruned_sig %d + candidates %d", q.text, st.Rows, st.PrunedSig, st.Candidates)
		}
		if r1-r0 != m1-m0 {
			p.breach("%s: pager ledger: %d reads for %d misses", q.text, r1-r0, m1-m0)
		}
		p.vals.add("sql.session_overhead_us", us(exec-parse-plan))
		p.vals.add("db.plan_ns_per_row", float64(plan)/rowsInTable)
		p.vals.add("store.page_reads_per_query", float64(r1-r0))
		if fetches := (h1 - h0) + (m1 - m0); fetches > 0 {
			p.vals.add("store.pager_hit_frac", float64(h1-h0)/float64(fetches))
		}
		p.vals.add("editdist.dp_cells_per_query", float64(st.DPCells))

		layers := p.kernelSpans(qp)
		if e.w.strategy == core.Naive {
			layers += p.scanSpans()
			p.vals.add("db.plan_residual_ns_per_row", float64(plan-layers)/rowsInTable)
		}
		p.seekSpans(qp, st)
		p.corpusSpans(q, rowsInTable)
	})
}

// scanSpans times the query-independent work of the naive plan, layer
// by layer, and returns their sum.
func (p *layerPass) scanSpans() time.Duration {
	n := float64(p.names.Count())
	heap := p.tr.do("store.heap_scan", func() {
		p.names.Heap.Scan(func(store.RID, []byte) error { return nil })
	})
	snap := p.e.in.d.AcquireSnap()
	scan := p.tr.do("db.scan_snap", func() {
		p.names.ScanSnap(snap, func(store.RID, db.Row) error { return nil })
	})
	p.e.in.d.ReleaseSnap(snap)
	parse := p.tr.do("phoneme.parse", func() {
		for _, s := range p.pnames {
			phoneme.ParseLenient(s)
		}
	})
	sig := p.tr.do("qgram.sig", func() {
		for _, ph := range p.phons {
			qgram.Signature(p.enc.Project(ph), p.cfg.Q)
		}
	})
	decode := scan - heap
	if decode < 0 {
		decode = 0
	}
	p.vals.add("store.heap_scan_ns_per_row", float64(heap)/n)
	p.vals.add("db.row_decode_ns_per_row", float64(decode)/n)
	p.vals.add("phoneme.parse_ns_per_row", float64(parse)/float64(len(p.pnames)))
	p.vals.add("qgram.sig_ns_per_row", float64(sig)/float64(len(p.phons)))
	return heap + decode + parse + sig
}

// kernelSpans runs the signature prefilter over the loaded rows and
// both kernels over the survivors — the naive plan's candidate set for
// this query — and returns the time the plan's own prefilter and
// verification would take: admit, bit-parallel decide, and the scalar
// DP on the pairs the bit-parallel kernel left undecided.
func (p *layerPass) kernelSpans(qp phoneme.String) time.Duration {
	op := p.e.f.op
	sf := op.NewSigFilter(qp, threshold, p.cfg.Q)
	var cands []int
	var st core.Stats
	admit := p.tr.do("qgram.admit", func() {
		for i := range p.phons {
			if sf.Admit(p.batch, i, &st) {
				cands = append(cands, i)
			}
		}
	})
	p.vals.add("qgram.admit_ns_per_row", float64(admit)/float64(len(p.phons)))
	if len(cands) == 0 {
		return admit
	}
	bound := func(i int) float64 {
		n := len(qp)
		if len(p.phons[i]) < n {
			n = len(p.phons[i])
		}
		return threshold * float64(n)
	}
	undecided := 0
	var bit time.Duration
	if p.bv != nil && p.bv.Prepare(qp) {
		weak := make([]int, len(cands))
		sigs := make([]uint64, len(cands))
		for k, i := range cands {
			weak[k], sigs[k] = editdist.WeakCount(p.phons[i]), p.bv.CandSig(p.phons[i])
		}
		bit = p.tr.do("editdist.bitvec", func() {
			for k, i := range cands {
				if _, decided, _ := p.bv.Decide(p.phons[i], weak[k], sigs[k], bound(i)); !decided {
					undecided++
				}
			}
		})
		p.vals.add("editdist.bitvec_ns_per_pair", float64(bit)/float64(len(cands)))
		p.vals.add("editdist.decided_frac", 1-float64(undecided)/float64(len(cands)))
	} else {
		undecided = len(cands)
	}
	scratch := editdist.NewScratch()
	scalar := p.tr.do("editdist.scalar", func() {
		for _, i := range cands {
			editdist.DistanceBoundedScratch(qp, p.phons[i], op.Cost(), bound(i), scratch)
		}
	})
	perPair := float64(scalar) / float64(len(cands))
	p.vals.add("editdist.scalar_ns_per_pair", perPair)
	return admit + bit + time.Duration(perPair*float64(undecided))
}

// seekSpans times the B-tree lookups the index plans start from: the
// covering gram index for the q-gram plan, the groupid index for the
// phonetic-index plan.
func (p *layerPass) seekSpans(qp phoneme.String, st core.Stats) {
	var tree *store.BTree
	var keys []uint64
	probes := 0
	switch p.e.w.strategy {
	case core.QGram:
		tree = p.cfg.CoverIndex.Tree
		seen := map[string]bool{}
		for _, g := range qgram.Extract(p.enc.Project(qp), p.cfg.Q) {
			if k := g.Key(); !seen[k] {
				seen[k] = true
				keys = append(keys, uint64(db.GramHash(k)))
			}
		}
		// One covering-index lookup per distinct gram, one id-index
		// lookup per row the plan fetched.
		probes = len(keys) + st.Rows
	case core.Indexed:
		tree = p.cfg.GroupIndex.Tree
		keys = []uint64{uint64(p.enc.Encode(qp))}
		probes = 1
	default:
		return
	}
	seek := p.tr.do("store.btree_seek", func() {
		for _, k := range keys {
			tree.Lookup(k)
		}
	})
	p.vals.add("store.btree_seek_us", us(seek)/float64(len(keys)))
	p.vals.add("store.btree_probes_per_query", float64(probes))
}

// corpusSpans runs the same strategy in memory: the pipeline with no
// storage under it, serial and on every core.
func (p *layerPass) corpusSpans(q *query, rows float64) {
	serial := p.tr.do("core.select", func() {
		p.corpus.Select(q.text, threshold, nil, p.e.w.strategy, core.Parallel(1))
	})
	par := p.tr.do("core.select_parallel", func() {
		p.corpus.Select(q.text, threshold, nil, p.e.w.strategy, core.Parallel(0))
	})
	p.vals.add("core.select_ns_per_row", float64(serial)/rows)
	p.vals.add("core.select_parallel_ns_per_row", float64(par)/rows)
}

// insertOp replays one autocommit insert down the stack: over the wire,
// through the in-process session, and as direct BeginTx / InsertTx /
// Commit calls — three rows, three commits.
func (p *layerPass) insertOp() {
	e, d, tr := p.e, p.e.in.d, p.tr
	if e.nextInsert+3 > len(e.f.inserts) {
		p.breach("out of insert rows")
		return
	}
	rows := e.f.inserts[e.nextInsert : e.nextInsert+3]
	e.nextInsert += 3
	before := d.WALStats()
	failed := false
	tr.do("op", func() {
		var err error
		tr.do("server.query", func() { _, err = e.writer.Query(rows[0].sql) })
		e.noteWrite(&e.write, rows[0], err)
		tr.do("sql.exec", func() { _, err = p.sess.Exec(rows[1].sql) })
		e.noteWrite(&e.write, rows[1], err)
		d.QueryLock().RLock()
		defer d.QueryLock().RUnlock()
		var tx *db.Tx
		tr.do("db.tx", func() {
			tr.do("db.begin", func() { tx, err = d.BeginTx() })
			if err != nil {
				return
			}
			ins := tr.do("db.insert_tx", func() { _, err = p.names.InsertTx(tx, rows[2].row) })
			if err != nil {
				tx.Rollback()
				return
			}
			commit := tr.do("db.commit", func() { err = tx.Commit() })
			p.vals.add("db.insert_tx_us", us(ins))
			p.vals.add("db.commit_ms", ms(commit))
		})
		e.noteWrite(&e.write, rows[2], err)
		failed = err != nil
	})
	after := d.WALStats()
	if failed {
		return
	}
	p.commits += 3
	// SinceCheckpoint drops when a checkpoint lands inside the
	// operation; such an operation is left out of the byte count.
	if grown := after.SinceCheckpoint - before.SinceCheckpoint; grown > 0 && after.Checkpoints == before.Checkpoints {
		p.walBytes += grown
		p.walCommits += 3
		for _, r := range rows {
			p.userBytes += r.nameBytes
		}
	}
}

// run replays the workload's operations and fills res.Layers.
func (p *layerPass) run(res *runResult) error {
	e, d := p.e, p.e.in.d
	nReads := e.cfg.probeOps
	if e.w.strategy != core.Indexed {
		nReads = e.cfg.scanOps
	}
	nWrites := 0
	if e.w.writer {
		nReads, nWrites = e.cfg.writeOps, e.cfg.writeOps
	}

	// The same reads untraced first: what tracing adds is the difference.
	var plain []float64
	for i := 0; i < nReads; i++ {
		q := &e.f.queries[i%len(e.f.queries)]
		start := time.Now()
		resp, err := e.readers[0].Query(q.sql)
		plain = append(plain, ms(time.Since(start)))
		e.checkRead(i%len(e.f.queries), resp, err)
	}

	walBefore := d.WALStats()
	_, w0, _, _ := p.pagerTotals()
	// Completed checkpoints, polled: their durations in ms and the
	// versions they collected.
	var ckptMS []float64
	gced := 0
	seen := walBefore.Checkpoints
	stopWatch := every(50*time.Millisecond, func() {
		if st := d.WALStats(); st.Checkpoints > seen {
			seen = st.Checkpoints
			ckptMS = append(ckptMS, ms(st.LastCheckpoint.Duration))
			gced += st.LastCheckpoint.VersionsGCed
		}
	})
	for i := 0; i < nReads || i < nWrites; i++ {
		if i < nWrites {
			p.insertOp()
		}
		if i < nReads {
			p.readOp(i)
		}
	}
	stopWatch()
	walAfter := d.WALStats()
	_, w1, _, _ := p.pagerTotals()

	if got := walAfter.Commits - walBefore.Commits; got != uint64(p.commits) {
		p.breach("WAL ledger: %d commits logged for %d acknowledged inserts", got, p.commits)
	}
	if len(p.breaches) > 0 {
		return fmt.Errorf("%s: %d ledger breaches, first: %s", e.w.name, len(p.breaches), p.breaches[0])
	}

	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for name, v := range p.vals {
		out[name] = median(v)
	}
	t := p.totals
	if t.Matches > 0 {
		out["db.rows_examined_per_result"] = float64(t.Rows) / float64(t.Matches)
	}
	out["core.candidates_per_query"] = float64(t.Candidates) / float64(nReads)
	out["core.matches_per_query"] = float64(t.Matches) / float64(nReads)
	if t.Rows > 0 {
		out["qgram.pruned_frac"] = float64(t.PrunedSig+t.PrunedLength+t.PrunedCount) / float64(t.Rows)
	}
	if p.walCommits > 0 {
		out["wal.bytes_per_commit"] = float64(p.walBytes) / float64(p.walCommits)
		out["wal.bytes_per_user_byte"] = float64(p.walBytes) / float64(p.userBytes)
	}
	if p.commits > 0 {
		out["wal.syncs_per_commit"] = float64(walAfter.Syncs-walBefore.Syncs) / float64(p.commits)
		out["store.page_writes_per_commit"] = float64(w1-w0) / float64(p.commits)
	}
	out["db.checkpoints"] = float64(len(ckptMS))
	out["db.checkpoint_ms_p50"] = median(ckptMS)
	out["db.versions_gced"] = float64(gced)
	mv := d.MVCCStats()
	out["db.mvcc_conflicts"] = float64(mv.Conflicts)
	out["db.commit_registry_size"] = float64(mv.CommitRegistry)
	out["trace.overhead_frac"] = median(p.tracedWire)/median(plain) - 1
	res.Layers = out

	// Single-goroutine counts: these repeat exactly for one seed.
	res.Counts["trace_rows"] = int64(t.Rows)
	res.Counts["trace_candidates"] = int64(t.Candidates)
	res.Counts["trace_matches"] = int64(t.Matches)
	res.Counts["trace_pruned"] = int64(t.PrunedSig + t.PrunedLength + t.PrunedCount)
	return writeTrace(e.cfg.tracePath(e.w.name), e.w.name, p.tr.spans)
}
