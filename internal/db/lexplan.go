package db

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

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
//	<table>_qgrams(id INT, pos INT, qgram STRING)
//	index <table>_id_idx  on <table>(id)
//	index <table>_gid_idx on <table>(groupid)
type LexConfig struct {
	Table    *Table
	IDCol    int
	NameCol  int
	PhonCol  int
	GroupCol int

	Aux                    *Table // nil disables the q-gram scan
	AuxID, AuxPos, AuxGram int

	IDIndex    *Index // nil disables q-gram candidate fetch by index
	GroupIndex *Index // nil disables the phonetic-index scan
	CoverIndex *Index // covering gram index; nil makes the q-gram probe scan the aux table

	Op *core.Operator
	Q  int

	// Snap is the read snapshot every scan and fetch in the lex plans
	// runs under (nil = latest committed state). The SQL layer sets it
	// per statement, so a lex query inside a transaction sees the
	// transaction's snapshot like any other read.
	Snap *Snap

	// Workers sets the verification parallelism of the lex nodes:
	// candidates are fetched from storage serially (the storage layer is
	// single-threaded), then core verifies them on a morsel pool of this
	// width (core.Parallel). 1 is serial, 0 means GOMAXPROCS; results
	// are identical at any width.
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

// lexCands is what a select source fetched: base rows and their decoded
// phonemes, index-aligned.
type lexCands struct {
	rows  []Row
	phons []phoneme.String
}

// add keeps row as a candidate if it passes the INLANGUAGES filter and
// has a phoneme string.
func (cs *lexCands) add(cfg *LexConfig, row Row, langs core.LangSet) {
	if nv := row[cfg.NameCol]; nv.T != TNString || !langs.Contains(nv.Lang) {
		return
	}
	if rp, ok := cfg.phonemes(row); ok {
		cs.rows = append(cs.rows, row.Clone())
		cs.phons = append(cs.phons, rp)
	}
}

// verify hands the fetched candidates to core's selection loop — batch,
// filter chain, kernel dispatch, morsel-ordered merge — and maps the
// matches back to rows, in fetch order. sigQ > 0 batches the prefilter
// columns admit reads.
func (cfg *LexConfig) verify(qp phoneme.String, threshold float64, cs *lexCands, sigQ int,
	admit func(b *core.Batch, i int, st *core.Stats) bool) []Row {
	idx, st := cfg.Op.Verify(qp, threshold, cs.phons, sigQ, admit, core.Parallel(cfg.Workers), core.WithKernel(cfg.Kernel))
	cfg.record(st)
	var rows []Row
	for _, i := range idx {
		rows = append(rows, cs.rows[i])
	}
	return rows
}

// fetch probes ix for key and passes every row visible under the
// snapshot to fn (stale index entries and invisible versions are
// skipped).
func (cfg *LexConfig) fetch(ix *Index, key uint64, fn func(Row)) error {
	rids, err := ix.Tree.Lookup(key)
	if err != nil {
		return err
	}
	for _, packed := range rids {
		row, err := cfg.Table.GetSnap(cfg.Snap, store.UnpackRID(packed))
		if errors.Is(err, store.ErrDeleted) {
			continue
		}
		if err != nil {
			return err
		}
		fn(row)
	}
	return nil
}

// ResolveLexConfig locates the conventional structures for table.
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
	if aux, ok := d.Table(table + "_qgrams"); ok {
		cfg.Aux = aux
		cfg.AuxID = aux.Columns.ColIndex("id")
		cfg.AuxPos = aux.Columns.ColIndex("pos")
		cfg.AuxGram = aux.Columns.ColIndex("qgram")
		if cfg.AuxID < 0 || cfg.AuxPos < 0 || cfg.AuxGram < 0 {
			return nil, fmt.Errorf("db: aux table %s_qgrams has wrong schema", table)
		}
		if ix, ok := d.Index(CoverIndexName(t.Name)); ok {
			cfg.CoverIndex = ix
		}
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

// phonemes decodes the stored phonemic string of a row, falling back to
// transforming the name when no pname column exists.
func (cfg *LexConfig) phonemes(row Row) (phoneme.String, bool) {
	if cfg.PhonCol >= 0 && row[cfg.PhonCol].T == TString {
		return phoneme.ParseLenient(row[cfg.PhonCol].S), true
	}
	nv := row[cfg.NameCol]
	if nv.T != TNString {
		return nil, false
	}
	p, err := cfg.Op.Transform(nv.S, nv.Lang)
	if err != nil {
		return nil, false
	}
	return p, true
}

// NewLexScanNaive builds the Table-1 plan: a sequential scan invoking
// the LexEQUAL UDF on every row. The scan fetches and decodes rows
// serially; core runs the batched signature prefilter and verifies them.
// Output order is table scan order regardless of parallelism.
func NewLexScanNaive(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	qp, err := cfg.Op.Transform(query.Value, query.Lang)
	if err != nil {
		return ErrNode("lexequal: %v", err)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		var cs lexCands
		err := cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
			cs.add(cfg, row, langs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		sf := cfg.Op.NewSigFilter(qp, threshold, cfg.Q)
		return cfg.verify(qp, threshold, &cs, cfg.Q, sf.Admit), nil
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

// probeGrams is the gram join of Figure 14 with the position predicate
// deferred: the sound position budget slacks by the candidate's weak
// count, unknown until the candidate row is fetched, so the probe keeps,
// per base-row id, each matching gram's displacement within the filter's
// budget cap (core.QGramFilter.Displacement). With the covering index
// the probe reads (id, pos) pairs straight from the B-tree — a hash
// collision can only inflate a count, which admits an extra candidate
// for verification, never a dismissal; without it the probe degrades to
// an aux-table scan.
func (cfg *LexConfig) probeGrams(qf *core.QGramFilter) (map[int64][]int32, error) {
	disps := map[int64][]int32{}
	note := func(id int64, positions []int, pos int) {
		if d, ok := qf.Displacement(positions, pos); ok {
			disps[id] = append(disps[id], d)
		}
	}
	table := qf.Table()
	if cfg.CoverIndex == nil {
		err := cfg.Aux.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
			if positions, ok := table[row[cfg.AuxGram].S]; ok {
				note(row[cfg.AuxID].I, positions, int(row[cfg.AuxPos].I))
			}
			return nil
		})
		return disps, err
	}
	for key, positions := range table {
		vals, err := cfg.CoverIndex.Tree.Lookup(uint64(GramHash(key)))
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			id, pos := UnpackCover(v)
			note(id, positions, pos)
		}
	}
	return disps, nil
}

// NewLexScanQGram builds the Table-2 plan (Figure 14): probe the
// positional q-gram structures with the query's grams, fetch the
// candidates that can reach the filter's minimum shared-gram count via
// the id index (plus, in the regime where the count filter has no
// power, the rows the probe never surfaced), and let core apply the
// length and count filters at each pair's exact budget and verify.
func NewLexScanQGram(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	if cfg.Aux == nil {
		return ErrNode("lexequal: table %s has no q-gram auxiliary table", cfg.Table.Name)
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
		disps, err := cfg.probeGrams(&qf)
		if err != nil {
			return nil, err
		}
		var cs lexCands
		collect := func(row Row) { cs.add(cfg, row, langs) }
		byIndex, zero := cfg.IDIndex != nil, qf.ZeroGramsCanMatch()
		if byIndex {
			minShared := qf.MinShared()
			ids := make([]int64, 0, len(disps))
			for id, ds := range disps {
				if len(ds) >= minShared {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			for _, id := range ids {
				if err := cfg.fetch(cfg.IDIndex, uint64(id), collect); err != nil {
					return nil, err
				}
			}
		}
		// One scan serves both the plan without an id index (every probed
		// id) and the residual sweep for zero-gram candidates.
		if !byIndex || zero {
			err = cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
				if _, seen := disps[row[cfg.IDCol].I]; seen && !byIndex || !seen && zero {
					collect(row)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		// The exact positional filter subsumes the Bloom prefilter; the
		// batch carries the prefilter columns for its projected lengths.
		admit := func(b *core.Batch, i int, st *core.Stats) bool {
			return qf.AdmitWithin(b, i, disps[cs.rows[i][cfg.IDCol].I], st)
		}
		return cfg.verify(qp, threshold, &cs, cfg.Q, admit), nil
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
		gid := soundex.NewEncoder(cfg.Op.Clusters()).Encode(qp)
		var cs lexCands
		if err := cfg.fetch(cfg.GroupIndex, uint64(gid), func(row Row) { cs.add(cfg, row, langs) }); err != nil {
			return nil, err
		}
		return cfg.verify(qp, threshold, &cs, 0, nil), nil
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

// materialize reads every row with a phoneme string into memory, as
// base rows plus a core.Corpus over their stored phonemes batched under
// op.
func (cfg *LexConfig) materialize(op *core.Operator) ([]Row, *core.Corpus, error) {
	var rows []Row
	var phons []phoneme.String
	var langs []script.Language
	err := cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
		if rp, ok := cfg.phonemes(row); ok {
			rows = append(rows, row.Clone())
			phons = append(phons, rp)
			langs = append(langs, row[cfg.NameCol].Lang)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := op.NewCorpusPhonemes(phons, langs, cfg.Q)
	return rows, c, err
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
		lrows, lc, err := left.materialize(left.Op)
		if err != nil {
			return nil, err
		}
		rrows, rc, err := right.materialize(left.Op)
		if err != nil {
			return nil, err
		}
		pairs, st, err := core.Join(lc, rc, threshold, diffLang, strat, core.Parallel(left.Workers), core.WithKernel(kern))
		if err != nil {
			return nil, fmt.Errorf("lexequal: %w", err)
		}
		st.BatchesBuilt += 2
		left.record(st)
		var out []Row
		for _, p := range pairs {
			l, r := lrows[p.Left], rrows[p.Right]
			out = append(out, append(append(make(Row, 0, len(l)+len(r)), l...), r...))
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
