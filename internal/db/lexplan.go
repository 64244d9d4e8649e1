package db

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"lexequal/internal/core"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/soundex"
	"lexequal/internal/store"
)

// FuncExpr adapts a closure into an Expr (used for predicates that
// close over prepared state, like a transformed query string).
type FuncExpr struct {
	F    func(Row) (Value, error)
	Desc string
}

// Eval implements Expr.
func (f *FuncExpr) Eval(row Row) (Value, error) { return f.F(row) }

func (f *FuncExpr) String() string { return f.Desc }

// LexConfig binds a multiscript name table to the physical structures
// the LexEQUAL plans read. The plans are storage *sources*: they fetch
// candidate rows (and, for the q-gram plan, gram evidence) and hand
// them to the one strategy engine in internal/core, which filters and
// verifies. The conventional layout (produced by the dataset loader) is:
//
//	<table>(id INT, name NSTRING, pname STRING, groupid INT)
//	index <table>_id_idx  on <table>(id)
//	index <table>_gid_idx on <table>(groupid)
//	gram index <table>_qgrams_cover on <table>(pname)
type LexConfig struct {
	Table    *Table
	IDCol    int
	NameCol  int
	PhonCol  int
	GroupCol int

	IDIndex    *Index // nil disables q-gram candidate fetch by index
	GroupIndex *Index // nil disables the phonetic-index scan
	CoverIndex *Index // the gram index under Op's cluster set; nil disables the q-gram scan

	Op *core.Operator
	Q  int

	// Snap is the read snapshot every scan and fetch in the lex plans
	// runs under (nil = latest committed state). The SQL layer sets it
	// per statement, so a lex query inside a transaction sees the
	// transaction's snapshot like any other read.
	Snap *Snap

	// Workers sets the parallelism of the lex nodes. The naive scan runs
	// whole on a core pool of this width (core.Parallel), each morsel a
	// range of heap pages walked, verified and decoded by one lane; the
	// index plans probe on the calling goroutine, copying each visible
	// candidate's record into an arena, and run everything after that
	// (tokenizing the stored phonemes, the batch columns, the filters,
	// the kernel) per morsel on the pool. 1 runs the same code inline, 0
	// means GOMAXPROCS; results are identical at any width.
	Workers int
	// Kernel selects the verification kernel (SET lexequal_kernel).
	// Auto engages the bit-parallel kernel whenever the operator's cost
	// model compiles; results are identical under every setting.
	Kernel core.Kernel
	// Counters, when non-nil, accumulates per-stage execution counters
	// across queries (surfaced by SHOW LEXSTATS).
	Counters *metrics.PipelineCounters
}

// record folds one execution's stats into the session counters.
func (cfg *LexConfig) record(st core.Stats) {
	if cfg.Counters != nil {
		cfg.Counters.Record(st)
	}
}

// lexFields is what the lex plans read of an encoded row without
// decoding it; the byte slices alias the row body.
type lexFields struct {
	id     int64 // the id column's value when it holds an INT, else 0
	named  bool  // the name column holds an NSTRING: name and lang are set
	name   []byte
	lang   []byte
	stored bool // the pname column holds a STRING: phon is set
	phon   []byte
}

// locate finds the fields in an encoded row body by walking its type
// bytes and length prefixes; it fails exactly where DecodeRow would.
func (cfg *LexConfig) locate(body []byte) (lexFields, error) {
	var f lexFields
	err := walkRow(body, len(cfg.Table.Columns), func(i int, t Type, bits uint64, s, lang []byte) {
		if i == cfg.IDCol && t == TInt {
			f.id = int64(bits)
		}
		if i == cfg.NameCol && t == TNString {
			f.named, f.name, f.lang = true, s, lang
		}
		if i == cfg.PhonCol && t == TString {
			f.stored, f.phon = true, s
		}
	})
	return f, err
}

// lexCand places one candidate in the arena: where its record body
// lies in lexCands.buf and, relative to the body, its stored phonemes
// and language tag.
type lexCand struct {
	body, size    int
	phon, phonLen int32 // phon < 0: no stored pname, see lexCands.extra
	lang, langLen int32
	id            int64
}

// lexCands is what a source fetched: an arena of the raw record bodies
// of the candidates — rows the snapshot sees, in a language the query
// asks for, that have a phoneme string. The fetching goroutine (a pool
// lane, for one morsel of the naive scan) does the page access, the
// visibility check and one copy per row; tokenizing the stored phonemes
// is left to the verification loop (phonemes) and only matches are ever
// decoded (row).
type lexCands struct {
	cfg   *LexConfig
	langs core.LangSet
	buf   []byte
	rows  []lexCand
	// extra holds the phonemes of candidates with no stored pname (NULL,
	// or a table without the column): their names transformed as they
	// were added, so a failed transform drops the row before it is
	// counted.
	extra map[int]phoneme.String
	// pre counts rows the source dismissed without fetching them; verify
	// folds it into the execution's one Stats record.
	pre core.Stats
}

// candsPool recycles arenas across queries and morsels: a whole-table
// arena is as large as the heap it read, and allocating and zeroing one
// per query was most of a scan's garbage.
var candsPool = sync.Pool{New: func() any { return new(lexCands) }}

// newCands readies an arena for about expect candidates of the table (0:
// unknown, let it grow). The caller releases it once the matches are
// decoded.
func (cfg *LexConfig) newCands(langs core.LangSet, expect int) *lexCands {
	cs := candsPool.Get().(*lexCands)
	cs.cfg, cs.langs = cfg, langs
	if expect <= 0 {
		return cs
	}
	count := int(cfg.Table.Count())
	if expect > count {
		expect = count
	}
	if expect > cap(cs.rows) {
		cs.rows = make([]lexCand, 0, expect)
	}
	if expect > 0 {
		// The heap's size over its row count bounds the mean record from
		// above, so a full scan never regrows the arena.
		heap := int(cfg.Table.Heap.Pager().NumPages()) * store.PageSize
		if need := heap / count * expect; need > cap(cs.buf) {
			cs.buf = make([]byte, 0, need)
		}
	}
	return cs
}

// release returns the arena's storage for the next query; nothing may
// alias it any longer (decoded rows do not).
func (cs *lexCands) release() {
	*cs = lexCands{buf: cs.buf[:0], rows: cs.rows[:0]}
	candsPool.Put(cs)
}

// add keeps the row encoded in body as a candidate if it passes the
// INLANGUAGES filter, has a phoneme string and (want non-nil) want
// accepts its id. body is copied; it may alias a pinned page.
func (cs *lexCands) add(body []byte, want func(id int64) bool) error {
	f, err := cs.cfg.locate(body)
	if err != nil {
		return err
	}
	if !f.named || cs.langs != nil && !cs.langs[script.Language(f.lang)] {
		return nil
	}
	if want != nil && !want(f.id) {
		return nil
	}
	// A field is a subslice of body, so the capacities differ by its offset.
	at := func(field []byte) int32 { return int32(cap(body) - cap(field)) }
	c := lexCand{
		body: len(cs.buf), size: len(body), id: f.id,
		phon: -1, lang: at(f.lang), langLen: int32(len(f.lang)),
	}
	if f.stored {
		c.phon, c.phonLen = at(f.phon), int32(len(f.phon))
	} else {
		p, err := cs.cfg.Op.Transform(string(f.name), script.Language(f.lang))
		if err != nil {
			return nil
		}
		if cs.extra == nil {
			cs.extra = map[int]phoneme.String{}
		}
		cs.extra[len(cs.rows)] = p
	}
	cs.buf = append(cs.buf, body...)
	cs.rows = append(cs.rows, c)
	return nil
}

// scan adds every row on the heap's data pages in [lo, hi) that the
// snapshot sees (and want accepts); [1, store.InvalidPage) is the table.
func (cs *lexCands) scan(lo, hi store.PageID, want func(id int64) bool) error {
	t := cs.cfg.Table
	return t.scanBodies(cs.cfg.Snap, lo, hi, func(rid store.RID, body []byte) error {
		if err := cs.add(body, want); err != nil {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, err)
		}
		return nil
	})
}

// fetch probes ix for key and adds every row visible under the snapshot
// (stale index entries and invisible versions are skipped), copying each
// record once: from its pinned page into the arena.
func (cs *lexCands) fetch(ix *Index, key uint64) error {
	rids, err := ix.Tree.Lookup(key)
	if err != nil {
		return err
	}
	add := func(body []byte) error { return cs.add(body, nil) }
	for _, packed := range rids {
		err := cs.cfg.Table.viewBody(cs.cfg.Snap, store.UnpackRID(packed), add)
		if err != nil && !errors.Is(err, store.ErrDeleted) {
			return err
		}
	}
	return nil
}

// phonemes is the core.PhonemeSource over the arena: candidate i's
// stored IPA text tokenized straight from its record into dst.
func (cs *lexCands) phonemes(dst phoneme.String, i int) phoneme.String {
	c := &cs.rows[i]
	if c.phon < 0 {
		return append(dst, cs.extra[i]...)
	}
	lo := c.body + int(c.phon)
	return phoneme.AppendParseLenient(dst, cs.buf[lo:lo+int(c.phonLen)])
}

// lang returns candidate i's language tag, aliasing the arena.
func (cs *lexCands) lang(i int) []byte {
	c := &cs.rows[i]
	lo := c.body + int(c.lang)
	return cs.buf[lo : lo+int(c.langLen)]
}

// row decodes candidate i.
func (cs *lexCands) row(i int) (Row, error) {
	c := &cs.rows[i]
	return DecodeRow(cs.buf[c.body:c.body+c.size], len(cs.cfg.Table.Columns))
}

// verify hands the fetched candidates to core's selection loop — per
// morsel: tokenize, batch, filter chain, kernel dispatch; then the
// morsel-ordered merge — and decodes the matches, in fetch order.
// sigQ > 0 batches the prefilter columns admit reads.
func (cs *lexCands) verify(qp phoneme.String, threshold float64, sigQ int,
	admit func(b *core.Batch, i int, st *core.Stats) bool) ([]Row, error) {
	cfg := cs.cfg
	idx, st := cfg.Op.Verify(qp, threshold, len(cs.rows), cs.phonemes, sigQ, admit, core.Parallel(cfg.Workers), core.WithKernel(cfg.Kernel))
	st.Add(cs.pre)
	cfg.record(st)
	return cs.decode(idx)
}

// decode decodes the candidates at idx, in order.
func (cs *lexCands) decode(idx []int) ([]Row, error) {
	var rows []Row
	for _, i := range idx {
		row, err := cs.row(i)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ResolveLexConfig locates the conventional structures for table. The
// gram index resolves only under the cluster set it was built with.
func ResolveLexConfig(d *DB, table string, op *core.Operator) (*LexConfig, error) {
	t, ok := d.Table(table)
	if !ok {
		return nil, fmt.Errorf("db: no table %q", table)
	}
	cfg := &LexConfig{Table: t, Op: op, Q: core.DefaultQ}
	cfg.IDCol = t.Columns.ColIndex("id")
	cfg.NameCol = t.Columns.ColIndex("name")
	cfg.PhonCol = t.Columns.ColIndex("pname")
	cfg.GroupCol = t.Columns.ColIndex("groupid")
	if cfg.NameCol < 0 {
		return nil, fmt.Errorf("db: table %q lacks a name column", table)
	}
	if ix, ok := d.Index(CoverIndexName(t.Name)); ok && ix.Def.Kind == IndexGram && ix.Def.Clusters == op.Clusters().Name() {
		cfg.CoverIndex = ix
	}
	if ix, ok := d.IndexOn(t.Name, "id"); ok {
		cfg.IDIndex = ix
	}
	if ix, ok := d.IndexOn(t.Name, "groupid"); ok {
		cfg.GroupIndex = ix
	}
	return cfg, nil
}

// GramHash maps a q-gram key to a non-negative int64 for B-tree
// indexing (FNV-1a). Collisions only enlarge the candidate set — the
// gram string is re-checked on fetch — so they cost time, never
// correctness.
func GramHash(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// scanMorselPages is how many heap pages one morsel of the naive scan
// covers: about core.MorselSize rows of a names table, which holds ~38
// a page.
const scanMorselPages = 8

// NewLexScanNaive builds the Table-1 plan: a sequential scan invoking
// the LexEQUAL UDF on every row. The heap is split into ranges of
// scanMorselPages pages, and each is a morsel of core's pool from the
// page walk on: the lane that claims it reads its pages under the heap's
// shared latch, copies the visible rows' records into an arena of its
// own, then tokenizes them, runs the batched signature prefilter,
// verifies them and decodes the matches. Output order is table scan
// order regardless of parallelism.
func NewLexScanNaive(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	qp, err := cfg.Op.Transform(query.Value, query.Lang)
	if err != nil {
		return ErrNode("lexequal: %v", err)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		// Rows the snapshot sees were committed before it was taken, so
		// they lie on pages that existed then; a nil snapshot (no WAL) has
		// a single writer.
		pages := int(cfg.Table.Heap.Pager().NumPages()) - 1
		sf := cfg.Op.NewSigFilter(qp, threshold, cfg.Q)
		rows, st, err := core.VerifyFetched(cfg.Op, qp, threshold, (pages+scanMorselPages-1)/scanMorselPages, cfg.Q, sf.Admit,
			func(m int, verify func(int, core.PhonemeSource) []int) ([]Row, error) {
				lo := store.PageID(1 + m*scanMorselPages)
				cs := cfg.newCands(langs, 0)
				defer cs.release()
				if err := cs.scan(lo, lo+scanMorselPages, nil); err != nil {
					return nil, err
				}
				return cs.decode(verify(len(cs.rows), cs.phonemes))
			}, core.Parallel(cfg.Workers), core.WithKernel(cfg.Kernel))
		if err != nil {
			return nil, err
		}
		cfg.record(st)
		return rows, nil
	}}
}

// lexRowsNode yields precomputed rows (the materializing strategies).
type lexRowsNode struct {
	cols Schema
	run  func() ([]Row, error)
	rows []Row
	idx  int
}

func (n *lexRowsNode) Columns() Schema { return n.cols }

func (n *lexRowsNode) Open() error {
	rows, err := n.run()
	if err != nil {
		return err
	}
	n.rows = rows
	n.idx = 0
	return nil
}

func (n *lexRowsNode) Next() (Row, error) {
	if n.idx >= len(n.rows) {
		return nil, nil
	}
	r := n.rows[n.idx]
	n.idx++
	return r, nil
}

func (n *lexRowsNode) Close() error { return nil }

// gramProbe is the working set of one q-gram plan execution, pooled
// across queries: the postings that matched a query gram, merged by id,
// and what the filters made of them before any row was fetched.
type gramProbe struct {
	// hits holds one entry per posting whose gram a query gram matched
	// within the filter's budget cap: the posting value with the gram's
	// displacement (core.QGramFilter.Displacement, saturated — which the
	// filter's d ≤ k test reads as "at least 255") in place of its
	// position. Sorted, so an id's hits are adjacent whatever order the
	// posting lists came in.
	hits []uint64
	// ids lists the rows to fetch: the probed ids the filters admitted on
	// their postings' summaries, ascending, then (from probed on) the
	// residual sweep's, ascending.
	ids    []int64
	probed int
	// Probed id j's displacements are disps[offs[j]:offs[j+1]].
	offs  []int32
	disps []int32
	// pre counts the rows dismissed on their postings alone.
	pre core.Stats
	// heapSweep: the residual sweep must read the heap — every row the
	// probe did not see is a candidate.
	heapSweep bool
}

var probePool = sync.Pool{New: func() any { return new(gramProbe) }}

func (gp *gramProbe) release() {
	*gp = gramProbe{hits: gp.hits[:0], ids: gp.ids[:0], offs: gp.offs[:0], disps: gp.disps[:0]}
	probePool.Put(gp)
}

// note keeps posting v, found under a gram the query holds at positions,
// if some pair budget can admit its displacement. An unknown position
// counts as no displacement at all.
func (gp *gramProbe) note(qf *core.QGramFilter, positions []int, v uint64) {
	var d int32
	if pos := coverInt(v >> coverPosShift); pos != core.SummaryUnknown {
		var ok bool
		if d, ok = qf.Displacement(positions, pos); !ok {
			return
		}
	}
	gp.hits = append(gp.hits, v&^(coverUnknown<<coverPosShift)|uint64(min(d, coverUnknown))<<coverPosShift)
}

// readPostings collects the postings of every gram of the query from
// the gram index, each carrying its row's summary.
func (cfg *LexConfig) readPostings(gp *gramProbe, qf *core.QGramFilter) error {
	for key, positions := range qf.Table() {
		h := uint64(GramHash(key))
		it := cfg.CoverIndex.Tree.Seek(h)
		for {
			k, v, ok := it.Next()
			if !ok || k != h {
				break
			}
			gp.note(qf, positions, v)
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// probe is the gram join of Figure 14 run on the posting lists: it
// merges the query grams' postings by id and decides each probed id at
// the pair's exact budget from the summary its postings carry, touching
// no row. A hash collision can only inflate a count, which admits an
// extra candidate for verification, never a dismissal; a posting without
// a summary (saturated) has its row fetched and decided afterwards. Then it settles
// the residual sweep for candidates that share no gram with the query:
// none where the count filter dismisses them all, the weak list from the
// weak count at which it stops doing so, the heap if that count is zero
// (the weak list holds no such rows).
func (cfg *LexConfig) probe(gp *gramProbe, qf *core.QGramFilter) error {
	if err := cfg.readPostings(gp, qf); err != nil {
		return err
	}
	slices.Sort(gp.hits)
	gp.offs = append(gp.offs, 0)
	for lo := 0; lo < len(gp.hits); {
		id, _, plen, weak := UnpackCover(gp.hits[lo])
		from := len(gp.disps)
		hi := lo
		for ; hi < len(gp.hits) && int64(gp.hits[hi]>>coverIDShift) == id; hi++ {
			gp.disps = append(gp.disps, int32(gp.hits[hi]>>coverPosShift&coverUnknown))
		}
		if qf.AdmitSummary(plen, weak, gp.disps[from:], &gp.pre) {
			gp.ids = append(gp.ids, id)
			gp.offs = append(gp.offs, int32(len(gp.disps)))
		} else {
			gp.pre.Rows++
			gp.disps = gp.disps[:from]
		}
		lo = hi
	}
	gp.probed = len(gp.ids)
	switch wmin, residual := qf.SweepFrom(); {
	case !residual:
	case wmin == 0:
		gp.heapSweep = true
	default:
		return cfg.sweep(gp, qf, wmin)
	}
	return nil
}

// seen reports whether the probe found a gram of id.
func (gp *gramProbe) seen(id int64) bool {
	i, _ := slices.BinarySearch(gp.hits, uint64(id)<<coverIDShift)
	return i < len(gp.hits) && int64(gp.hits[i]>>coverIDShift) == id
}

// sweep is the residual sweep over the weak list: the rows with at least
// wmin ≥ 1 weak phonemes that the probe did not see, filtered on their
// summaries with no gram evidence.
func (cfg *LexConfig) sweep(gp *gramProbe, qf *core.QGramFilter, wmin int) error {
	it := cfg.CoverIndex.Tree.Seek(weakKey(wmin))
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		id, _, plen, weak := UnpackCover(v)
		if gp.seen(id) {
			continue
		}
		if qf.AdmitSummary(plen, weak, nil, &gp.pre) {
			gp.ids = append(gp.ids, id)
		} else {
			gp.pre.Rows++
		}
	}
	slices.Sort(gp.ids[gp.probed:])
	return it.Err()
}

// fetches reports whether the plan fetches id.
func (gp *gramProbe) fetches(id int64) bool {
	_, probed := slices.BinarySearch(gp.ids[:gp.probed], id)
	_, swept := slices.BinarySearch(gp.ids[gp.probed:], id)
	return probed || swept
}

// dispsOf returns the displacements the probe kept for id (none for a
// row the residual sweep supplied). The result is shared read-only.
func (gp *gramProbe) dispsOf(id int64) []int32 {
	j, ok := slices.BinarySearch(gp.ids[:gp.probed], id)
	if !ok {
		return nil
	}
	return gp.disps[gp.offs[j]:gp.offs[j+1]]
}

// NewLexScanQGram builds the Table-2 plan (Figure 14): probe the
// positional q-gram postings with the query's grams, apply the length,
// count and position filters to each probed id at the pair's exact
// budget from the row summary its postings carry, and fetch only the
// survivors via the id index — plus, in the regime where the count
// filter has no power, the survivors of the same filters among the rows
// the probe never surfaced, read from the weak list. core rechecks the
// filters against each fetched row's own columns and verifies. The heap
// is scanned only when the filter has no power even over rows without a
// weak phoneme, which the weak list does not hold, and for tables
// without an id index.
func NewLexScanQGram(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	if cfg.CoverIndex == nil {
		return ErrNode("lexequal: table %s has no gram index under cluster set %q", cfg.Table.Name, cfg.Op.Clusters().Name())
	}
	if cfg.IDCol < 0 {
		return ErrNode("lexequal: table %s has no id column", cfg.Table.Name)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		qp, err := cfg.Op.Transform(query.Value, query.Lang)
		if err != nil {
			return nil, err
		}
		qf := cfg.Op.NewQGramFilter(qp, threshold, cfg.Q)
		gp := probePool.Get().(*gramProbe)
		defer gp.release()
		if err := cfg.probe(gp, &qf); err != nil {
			return nil, err
		}
		byIndex := cfg.IDIndex != nil
		expect := len(gp.ids)
		if gp.heapSweep {
			expect = int(cfg.Table.Count())
		}
		cs := cfg.newCands(langs, expect)
		defer cs.release()
		cs.pre = gp.pre
		if byIndex {
			for _, id := range gp.ids {
				if err := cs.fetch(cfg.IDIndex, uint64(id)); err != nil {
					return nil, err
				}
			}
		}
		// One scan serves both the plan without an id index (every id to
		// fetch) and the residual sweep the weak list cannot serve.
		if !byIndex || gp.heapSweep {
			err = cs.scan(1, store.InvalidPage, func(id int64) bool {
				return !byIndex && gp.fetches(id) || gp.heapSweep && !gp.seen(id)
			})
			if err != nil {
				return nil, err
			}
		}
		// The exact positional filter subsumes the Bloom prefilter; the
		// batch carries the prefilter columns for its projected lengths.
		// This is the recheck of the pre-fetch decision against the
		// fetched version's own columns.
		admit := func(b *core.Batch, i int, st *core.Stats) bool {
			return qf.AdmitWithin(b, i, gp.dispsOf(cs.rows[i].id), st)
		}
		return cs.verify(qp, threshold, cfg.Q, admit)
	}}
}

// NewLexScanIndexed builds the Table-3 plan (Figure 15): compute the
// query's grouped phoneme string identifier, probe the B-tree index,
// and verify the rows sharing the signature with the UDF.
func NewLexScanIndexed(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	if cfg.GroupIndex == nil {
		return ErrNode("lexequal: table %s has no phonetic index", cfg.Table.Name)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		qp, err := cfg.Op.Transform(query.Value, query.Lang)
		if err != nil {
			return nil, err
		}
		gid := cfg.Op.Encoder().Encode(qp)
		cs := cfg.newCands(langs, 0)
		defer cs.release()
		if err := cs.fetch(cfg.GroupIndex, uint64(gid)); err != nil {
			return nil, err
		}
		return cs.verify(qp, threshold, 0, nil)
	}}
}

// JoinKernel resolves the kernel a lex join actually verifies with.
// Joins verify under the left operator's cost model, but the right
// side's kernel signatures are built under its own model: when the two
// differ, the bit-parallel path would read masks from the wrong model,
// so the join runs on the scalar kernel regardless of the session knob.
// The returned reason is non-empty exactly when that forced downgrade
// happens — EXPLAIN appends it so the plan reports the effective
// kernel, not the model-level resolution.
func JoinKernel(left, right *LexConfig) (core.Kernel, string) {
	if !left.Op.CostEqual(right.Op) {
		return core.KernelScalar, "cross-model join"
	}
	return left.Kernel, ""
}

// materialize reads every row with a phoneme string into an arena (the
// caller's to release) and builds a core.Corpus over their stored
// phonemes, batched under op.
func (cfg *LexConfig) materialize(op *core.Operator) (*lexCands, *core.Corpus, error) {
	cs := cfg.newCands(nil, int(cfg.Table.Count()))
	if err := cs.scan(1, store.InvalidPage, nil); err != nil {
		cs.release()
		return nil, nil, err
	}
	// A table holds a handful of languages: share one tag among its rows.
	tags := map[string]script.Language{}
	langs := make([]script.Language, len(cs.rows))
	for i := range langs {
		b := cs.lang(i)
		l, ok := tags[string(b)]
		if !ok {
			l = script.Language(b)
			tags[string(l)] = l
		}
		langs[i] = l
	}
	c, err := op.NewCorpusPhonemes(cs.phonemes, langs, cfg.Q)
	if err != nil {
		cs.release()
		return nil, nil, err
	}
	return cs, c, nil
}

// NewLexJoin builds the equi-join plans of Figure 5: every pair of rows
// from the two tables matching under LexEQUAL (optionally restricted to
// different languages). Both tables are materialized under their
// snapshots and joined by core.Join, where strat selects the access
// path: the UDF nested loop of Table 1, the gram-index probe of Table 2
// or the phonetic-index probe of Table 3, each over indexes core builds
// in memory from the rows the snapshot sees. Output rows are the
// concatenation left ++ right, ordered by (left scan position, right
// scan position) under every strategy.
func NewLexJoin(left, right *LexConfig, threshold float64, diffLang bool, strat core.Strategy) Node {
	cols := append(append(Schema{}, left.Table.Columns...), right.Table.Columns...)
	kern, _ := JoinKernel(left, right)
	return &lexRowsNode{cols: cols, run: func() ([]Row, error) {
		// Both sides are batched under the LEFT operator, so the kernel
		// signatures and projections agree with the model the
		// verification runs under even when the two configs carry
		// different operators.
		lcs, lc, err := left.materialize(left.Op)
		if err != nil {
			return nil, err
		}
		defer lcs.release()
		rcs, rc, err := right.materialize(left.Op)
		if err != nil {
			return nil, err
		}
		defer rcs.release()
		pairs, st, err := core.Join(lc, rc, threshold, diffLang, strat, core.Parallel(left.Workers), core.WithKernel(kern))
		if err != nil {
			return nil, fmt.Errorf("lexequal: %w", err)
		}
		st.BatchesBuilt += 2
		left.record(st)
		var out []Row
		for _, p := range pairs {
			l, err := lcs.row(p.Left)
			if err != nil {
				return nil, err
			}
			r, err := rcs.row(p.Right)
			if err != nil {
				return nil, err
			}
			out = append(out, append(l, r...))
		}
		return out, nil
	}}
}

// RegisterLexEqualUDF installs the lexequal(name, query, threshold) UDF
// into a function registry — the paper's outside-the-server integration
// path. Both string arguments must be NSTRING (language-tagged); the
// result is 1, 0, or NULL for NORESOURCE.
func RegisterLexEqualUDF(r *FuncRegistry, op *core.Operator) {
	r.Register("lexequal", func(args []Value) (Value, error) {
		if len(args) != 3 {
			return Null(), fmt.Errorf("db: lexequal expects 3 arguments, got %d", len(args))
		}
		a, b, e := args[0], args[1], args[2]
		if a.T != TNString || b.T != TNString {
			return Null(), fmt.Errorf("db: lexequal arguments must be NSTRING")
		}
		thr, ok := e.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("db: lexequal threshold must be numeric")
		}
		res, err := op.Match(
			core.Text{Value: a.S, Lang: a.Lang},
			core.Text{Value: b.S, Lang: b.Lang},
			thr,
		)
		if err != nil {
			return Null(), err
		}
		switch res {
		case core.True:
			return Int(1), nil
		case core.False:
			return Int(0), nil
		default:
			return Null(), nil // NORESOURCE
		}
	})
	r.Register("soundex", func(args []Value) (Value, error) {
		if err := arity("soundex", args, 1); err != nil {
			return Null(), err
		}
		return Str(soundex.Classic(args[0].S)), nil
	})
	r.Register("phonemes", func(args []Value) (Value, error) {
		if err := arity("phonemes", args, 1); err != nil {
			return Null(), err
		}
		if args[0].T != TNString {
			return Null(), fmt.Errorf("db: phonemes argument must be NSTRING")
		}
		p, err := op.Transform(args[0].S, args[0].Lang)
		if err != nil {
			return Null(), nil // NORESOURCE or untranscribable
		}
		return Str(p.IPA()), nil
	})
}
