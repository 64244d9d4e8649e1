package core

import (
	"fmt"
	"sort"
	"sync"

	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/soundex"
)

// Strategy names the three execution plans of §5.
type Strategy uint8

// Execution strategies for LexEQUAL selections and joins.
const (
	Naive   Strategy = iota // call the UDF on every row (Table 1)
	QGram                   // q-gram filters, then the UDF (Table 2)
	Indexed                 // phonetic index probe, then the UDF (Table 3)
)

func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case QGram:
		return "qgram"
	case Indexed:
		return "indexed"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ParseStrategy resolves a strategy name from CLI/SQL settings.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "naive", "udf":
		return Naive, nil
	case "qgram", "qgrams":
		return QGram, nil
	case "indexed", "index", "phonetic":
		return Indexed, nil
	default:
		return Naive, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// LangSet filters match targets by language: the INLANGUAGES clause.
// A nil LangSet is the * wildcard (all languages).
type LangSet map[script.Language]bool

// NewLangSet builds a set from a list; an empty list yields the
// wildcard nil set.
func NewLangSet(langs ...script.Language) LangSet {
	if len(langs) == 0 {
		return nil
	}
	s := make(LangSet, len(langs))
	for _, l := range langs {
		s[l] = true
	}
	return s
}

// Contains reports whether lang passes the filter.
func (s LangSet) Contains(lang script.Language) bool { return s == nil || s[lang] }

// Stats counts the work a strategy performed, for the efficiency
// experiments: how many rows the cheap phase admitted as candidates,
// how many each filter pruned, how much DP work verification cost, and
// how many survived. All fields are order-independent sums, so a
// parallel execution reports totals byte-identical to the serial one.
type Stats struct {
	Rows       int // rows considered (after the language filter)
	Candidates int // rows reaching the edit-distance verification
	Matches    int // rows in the final result

	PrunedLength int   // candidates dismissed by the q-gram length filter
	PrunedCount  int   // candidates dismissed by the q-gram count filter
	PrunedSig    int   // candidates dismissed by the batched signature prefilter
	DPCells      int64 // scalar DP cells evaluated during verification
	SigCacheHits int   // join probes served from the corpus signature cache

	BitvecOps       int64 // 64-cell word operations of the bit-parallel kernel
	ScalarFallbacks int   // verifications the requested kernel deferred to the scalar DP
	BatchesBuilt    int   // columnar candidate batches materialized
}

// Add accumulates another Stats into s (used to merge per-worker stats
// and to aggregate across queries).
func (s *Stats) Add(o Stats) {
	s.Rows += o.Rows
	s.Candidates += o.Candidates
	s.Matches += o.Matches
	s.PrunedLength += o.PrunedLength
	s.PrunedCount += o.PrunedCount
	s.PrunedSig += o.PrunedSig
	s.DPCells += o.DPCells
	s.SigCacheHits += o.SigCacheHits
	s.BitvecOps += o.BitvecOps
	s.ScalarFallbacks += o.ScalarFallbacks
	s.BatchesBuilt += o.BatchesBuilt
}

// Canon returns the kernel-independent view of the stats: the work
// counters that legitimately differ between the scalar and bit-parallel
// kernels (DP cells, word ops, fallback dispatches) are masked, and
// everything that must be byte-identical across every (kernel, workers)
// pair — row, prune, candidate and match accounting — is kept. The
// determinism tests and the bench audit compare Canon views across
// kernels and raw Stats across worker counts.
func (s Stats) Canon() Stats {
	s.DPCells = 0
	s.BitvecOps = 0
	s.ScalarFallbacks = 0
	return s
}

// Corpus is a queryable collection of multiscript texts with the
// auxiliary structures of §5: the flat columnar batch of phoneme strings
// (cached transforms plus the per-row kernel and prefilter columns) and
// the grouped-phoneme-identifier hash, both built once, and the
// positional q-gram inverted index, built on first q-gram use.
type Corpus struct {
	op      *Operator
	q       int
	texts   []Text
	batch   *Batch // columnar phoneme rows + kernel/prefilter columns
	skipped []int  // rows whose language had no converter (NORESOURCE rows)

	grouped map[soundex.GroupedID][]int

	gramOnce sync.Once
	gidx     *gramIndex
}

// gramIndex is the corpus side of the Figure 14 gram join.
type gramIndex struct {
	postings map[string][]posting // q-gram inverted index
	// rows caches each row's positional grams, so a join probing with
	// this corpus's rows never re-extracts or re-renders gram keys.
	rows [][]sigGram
	// sweep orders rows by descending weak count: the order a join's
	// zero-gram residual sweep visits them in (QGramFilter.CountHasPower).
	sweep []int
}

type posting struct {
	row int
	pos int
}

// DefaultQ is the gram length used by the paper's experiments.
const DefaultQ = 3

// NewCorpus transforms every text once and builds the q-gram and
// phonetic indexes. Rows in languages without a TTP converter are
// retained but never match (they are the NORESOURCE rows); their
// indices are reported by Skipped.
func (op *Operator) NewCorpus(texts []Text) (*Corpus, error) {
	return op.NewCorpusQ(texts, DefaultQ)
}

// NewCorpusQ is NewCorpus with an explicit q-gram length (q >= 2).
func (op *Operator) NewCorpusQ(texts []Text, q int) (*Corpus, error) {
	if err := checkQ(q); err != nil {
		return nil, err
	}
	phons := make([]phoneme.String, len(texts))
	var skipped []int
	for i, t := range texts {
		if !op.registry.Has(t.Lang) {
			skipped = append(skipped, i)
			continue
		}
		p, err := op.Transform(t.Value, t.Lang)
		if err != nil {
			return nil, fmt.Errorf("core: row %d (%s): %w", i, t, err)
		}
		phons[i] = p
	}
	c := op.newCorpus(texts, op.BuildBatch(phons, KernelAuto, q), q)
	c.skipped = skipped
	return c, nil
}

// NewCorpusPhonemes builds a corpus over rows that are already phoneme
// strings (a stored pname column), supplied by src and tagged with
// their languages; no TTP runs. Zero-length rows never match, like
// NORESOURCE rows.
func (op *Operator) NewCorpusPhonemes(src PhonemeSource, langs []script.Language, q int) (*Corpus, error) {
	if err := checkQ(q); err != nil {
		return nil, err
	}
	texts := make([]Text, len(langs))
	for i, l := range langs {
		texts[i].Lang = l
	}
	return op.newCorpus(texts, op.buildBatch(len(langs), src, KernelAuto, q, 0), q), nil
}

func checkQ(q int) error {
	if q < 2 {
		return fmt.Errorf("core: q must be >= 2, got %d", q)
	}
	return nil
}

// newCorpus wraps the columnar batch of the rows, materialized once
// (KernelAuto, sigQ = q) with every column the strategies can consume —
// transforms, weak counts, kernel signatures (when the cost model
// bit-parallelizes), projected lengths and Bloom signatures — so scans
// at any kernel setting share one read-only batch and the per-candidate
// hot path never makes an interface call or allocates.
func (op *Operator) newCorpus(texts []Text, batch *Batch, q int) *Corpus {
	c := &Corpus{
		op:      op,
		q:       q,
		texts:   texts,
		batch:   batch,
		grouped: make(map[soundex.GroupedID][]int),
	}
	for i := range texts {
		if p := batch.View(i); len(p) > 0 {
			id := op.encoder.Encode(p)
			c.grouped[id] = append(c.grouped[id], i)
		}
	}
	return c
}

// gramIndex returns the positional q-gram index, building it on first
// use (naive and indexed plans never pay for it). Grams are extracted
// over the signature projection; see QGramFilter.
func (c *Corpus) gramIndex() *gramIndex {
	c.gramOnce.Do(func() {
		n := c.Len()
		idx := &gramIndex{postings: make(map[string][]posting), rows: make([][]sigGram, n), sweep: make([]int, n)}
		for i := 0; i < n; i++ {
			idx.sweep[i] = i
			p := c.batch.phon.View(i)
			if p == nil {
				continue
			}
			idx.rows[i] = sigGrams(c.op.encoder.Project(p), c.q)
			for _, g := range idx.rows[i] {
				idx.postings[g.key] = append(idx.postings[g.key], posting{row: i, pos: g.pos})
			}
		}
		sort.SliceStable(idx.sweep, func(a, b int) bool {
			return c.batch.wk[idx.sweep[a]] > c.batch.wk[idx.sweep[b]]
		})
		c.gidx = idx
	})
	return c.gidx
}

// gramCounts probes the inverted index with the filter's grams: per row,
// how many postings pass the position test at the pair's budget.
func (c *Corpus) gramCounts(f *QGramFilter) map[int]int {
	idx := c.gramIndex()
	counts := make(map[int]int)
	for _, g := range f.grams {
		for _, p := range idx.postings[g.key] {
			if f.positionOK(g.pos, p.pos, int(c.batch.wk[p.row])) {
				counts[p.row]++
			}
		}
	}
	return counts
}

// Len returns the number of rows.
func (c *Corpus) Len() int { return len(c.texts) }

// Text returns row i's text.
func (c *Corpus) Text(i int) Text { return c.texts[i] }

// Phonemes returns row i's phoneme string (nil for NORESOURCE rows).
// The view aliases the corpus batch buffer and must be treated as
// read-only.
func (c *Corpus) Phonemes(i int) phoneme.String { return c.batch.phon.View(i) }

// Batch exposes the corpus's columnar candidate batch (read-only).
func (c *Corpus) Batch() *Batch { return c.batch }

// Skipped lists rows whose language had no TTP converter.
func (c *Corpus) Skipped() []int { return c.skipped }

// Q returns the corpus's q-gram length.
func (c *Corpus) Q() int { return c.q }

// verify is the selection loop every plan shares: candidate j of n is
// row rowAt(j) (nil: row j itself) of the batch batchFor returns for the
// morsel — the same read-only batch every time for a corpus, the lane's
// freshly filled one for a storage-fed scan. Rows the source skips are
// never counted, every other row is counted, run through the plan's
// filter chain (nil admits everything; a false return must account for
// itself in a Pruned counter), and verified by the kernel dispatcher on
// the morsel pool. Output is in candidate order at any width.
func verify(n int, batchFor func(ln *Lane, lo, hi int) *Batch, rowAt func(j int) int, pm *BatchMatcher, workers int,
	skip func(i int) bool, admit func(b *Batch, i int, st *Stats) bool) ([]int, Stats) {
	chunks, st := RunMorsels(n, workers, func(ln *Lane, lo, hi int) []int {
		return ln.selectRange(batchFor(ln, lo, hi), lo, hi, rowAt, pm, skip, admit, nil)
	})
	out := MergeChunks(chunks)
	st.Matches = len(out)
	return out, st
}

// selectRange is verify's loop over candidates [lo, hi) of one morsel,
// whose rows are in b; it appends the matches to out.
func (ln *Lane) selectRange(b *Batch, lo, hi int, rowAt func(j int) int, pm *BatchMatcher,
	skip func(i int) bool, admit func(b *Batch, i int, st *Stats) bool, out []int) []int {
	for j := lo; j < hi; j++ {
		i := j
		if rowAt != nil {
			i = rowAt(j)
		}
		if skip != nil && skip(i) {
			continue
		}
		ln.Stats.Rows++
		if admit != nil && !admit(b, i, &ln.Stats) {
			continue
		}
		ln.Stats.Candidates++
		if pm.Match(b, i, ln) {
			out = append(out, i)
		}
	}
	return out
}

// Verify is the selection loop for n candidates fetched from storage,
// whose phoneme strings src supplies (sigQ > 0 adds the prefilter
// columns the SigFilter and QGramFilter chains read). Nothing is
// batched up front: each morsel asks src for its own rows, fills its
// range of the batch columns, and then counts, filters (admit) and
// verifies that range against qp, so tokenizing and signature building
// divide by the pool width like the kernel does. Row indexes stay
// global throughout; the indexes of the matches come back in candidate
// order. src, admit and everything they read are shared read-only
// across the pool.
func (op *Operator) Verify(qp phoneme.String, threshold float64, n int, src PhonemeSource, sigQ int,
	admit func(b *Batch, i int, st *Stats) bool, opts ...ExecOption) ([]int, Stats) {
	o := resolveOpts(opts)
	bb := op.newBatchBuilder(o.kernel, sigQ)
	var cols Batch // the scalar columns of all n rows; each lane fills its morsels' ranges
	bb.size(&cols, n)
	fill := func(ln *Lane, lo, hi int) *Batch {
		b := &ln.batch
		b.wk, b.ksig, b.plen, b.gsig = cols.wk, cols.ksig, cols.plen, cols.gsig
		b.phon.reset(lo)
		bb.fill(b, &ln.proj, src, lo, hi)
		return b
	}
	pm := op.NewBatchMatcher(qp, threshold, o.kernel)
	defer pm.release()
	out, st := verify(n, fill, nil, pm, o.workers, nil, admit)
	st.BatchesBuilt++
	return out, st
}

// VerifyFetched is Verify for candidates that are fetched on the pool
// too: the source is split into morsels (ranges of heap pages, say),
// and process runs once per morsel m in [0, morsels) on the lane that
// claims it. It fetches the morsel's candidates into storage of its own
// and calls verify with their count and phonemes, indexed from zero;
// verify batches, counts, filters (admit) and verifies them against qp
// in the lane — the loop Verify runs — and returns the indexes of the
// matches in order, valid until the next call on the lane; process
// turns them into the morsel's output. The outputs are concatenated in
// morsel order, so they and the Stats are identical at any width. The
// first error in morsel order is returned, and once one is known no
// later morsel starts.
func VerifyFetched[T any](op *Operator, qp phoneme.String, threshold float64, morsels, sigQ int,
	admit func(b *Batch, i int, st *Stats) bool,
	process func(m int, verify func(n int, src PhonemeSource) []int) ([]T, error),
	opts ...ExecOption) ([]T, Stats, error) {
	o := resolveOpts(opts)
	bb := op.newBatchBuilder(o.kernel, sigQ)
	pm := op.NewBatchMatcher(qp, threshold, o.kernel)
	defer pm.release()
	chunks, st, err := runMorsels(morsels, o.workers, func(ln *Lane, m int) ([]T, error) {
		return process(m, func(n int, src PhonemeSource) []int {
			b := &ln.batch
			bb.size(b, n)
			b.phon.reset(0)
			bb.fill(b, &ln.proj, src, 0, n)
			ln.matches = ln.selectRange(b, 0, n, nil, pm, nil, admit, ln.matches[:0])
			ln.Stats.Matches += len(ln.matches)
			return ln.matches
		})
	})
	if err != nil {
		return nil, Stats{}, err
	}
	st.BatchesBuilt++
	return MergeChunks(chunks), st, nil
}

// Select finds the rows matching query at the threshold, restricted to
// langs, using the given strategy. All strategies return identical
// results except Indexed, which may have false dismissals (§5.3).
// Options (Parallel) tune execution without changing results: the
// candidate range is split into morsels consumed by a worker pool with
// per-worker scratch and stats, merged in morsel order.
func (c *Corpus) Select(query Text, threshold float64, langs LangSet, strat Strategy, opts ...ExecOption) ([]int, Stats, error) {
	if threshold < 0 {
		threshold = c.op.threshold
	}
	if threshold > 1 {
		return nil, Stats{}, fmt.Errorf("core: match threshold %v outside [0,1]", threshold)
	}
	qp, err := c.op.Transform(query.Value, query.Lang)
	if err != nil {
		return nil, Stats{}, err
	}
	o := resolveOpts(opts)
	pm := c.op.NewBatchMatcher(qp, threshold, o.kernel)
	defer pm.release()
	skip := func(i int) bool {
		return c.batch.phon.RowLen(i) == 0 || !langs.Contains(c.texts[i].Lang)
	}
	whole := func(*Lane, int, int) *Batch { return c.batch }
	var out []int
	var st Stats
	switch strat {
	case Naive:
		// Scan every row, but run the batched signature prefilter before
		// paying for verification: Candidates undercounts Rows by exactly
		// PrunedSig.
		sf := c.op.NewSigFilter(qp, threshold, c.q)
		out, st = verify(c.Len(), whole, nil, pm, o.workers, skip, sf.Admit)
	case QGram:
		// Figure 14: the inverted index supplies position-filtered gram
		// counts in one probe pass; the scan then runs the length and
		// count filters (counts is read-only by then).
		f := c.op.NewQGramFilter(qp, threshold, c.q)
		counts := c.gramCounts(&f)
		out, st = verify(c.Len(), whole, nil, pm, o.workers, skip, func(b *Batch, i int, s *Stats) bool {
			return f.Admit(b, i, counts[i], s)
		})
	case Indexed:
		// Figure 15: verify the (few) rows sharing the query's cluster
		// signature. Fast, with false dismissals for matches whose edits
		// cross cluster boundaries.
		group := c.grouped[c.op.encoder.Encode(qp)]
		out, st = verify(len(group), whole, func(j int) int { return group[j] }, pm, o.workers, skip, nil)
	default:
		return nil, Stats{}, fmt.Errorf("core: unknown strategy %v", strat)
	}
	return out, st, nil
}

// Pair is one result of a join: row indexes into the left and right
// corpora.
type Pair struct {
	Left, Right int
}

// Join finds all cross-corpus pairs matching at the threshold under the
// strategy, optionally requiring different languages (the paper's
// equi-join example restricts B1.Language <> B2.Language). The probe
// loop over left rows is split into morsels; the strategies differ only
// in how they enumerate a left row's right-side candidates and which
// filter those pass. Per-worker scratch and stats plus the final
// normalizing sort make the output — ordered by (left row, right row) —
// and Stats byte-identical to the serial path at any worker count.
func Join(left, right *Corpus, threshold float64, requireDifferentLang bool, strat Strategy, opts ...ExecOption) ([]Pair, Stats, error) {
	if threshold < 0 {
		threshold = left.op.threshold
	}
	if threshold > 1 {
		return nil, Stats{}, fmt.Errorf("core: match threshold %v outside [0,1]", threshold)
	}
	o := resolveOpts(opts)
	// The verification always runs under the left operator's cost model,
	// but the right batch's kernel signatures were built under the
	// right's: when the models differ the bit-parallel path would read
	// masks from the wrong model, so cross-model joins run scalar.
	kern := o.kernel
	if !left.op.CostEqual(right.op) {
		kern = KernelScalar
	}
	// candidates prepares the probe of left row l: the right rows to try
	// and the filter they must pass (nil admits everything).
	var candidates func(ln *Lane, l int, lp phoneme.String) ([]int, func(r int, st *Stats) bool)
	switch strat {
	case Naive:
		all := make([]int, right.Len())
		for r := range all {
			all[r] = r
		}
		// The batched signature prefilter needs the probe projection and
		// the right batch's signature columns to come from one encoder
		// and cost model; a shared operator guarantees both.
		useSig := left.op == right.op
		candidates = func(_ *Lane, _ int, lp phoneme.String) ([]int, func(int, *Stats) bool) {
			if !useSig {
				return all, nil
			}
			sf := left.op.NewSigFilter(lp, threshold, right.q)
			return all, func(r int, st *Stats) bool { return sf.Admit(right.batch, r, st) }
		}
	case QGram:
		ridx := right.gramIndex()
		// Probe-side grams come from the left corpus's cache when the
		// gram lengths agree (always, for a self-join).
		var cache [][]sigGram
		if left.q == right.q {
			cache = left.gramIndex().rows
		}
		candidates = func(ln *Lane, l int, lp phoneme.String) ([]int, func(int, *Stats) bool) {
			var grams []sigGram
			if cache != nil {
				ln.Stats.SigCacheHits++
				grams = cache[l]
			} else {
				grams = sigGrams(left.op.encoder.Project(lp), right.q)
			}
			// The filter budgets under the LEFT operator's cost model —
			// the model the verification runs under.
			f := left.op.qgramFilter(len(lp), int(left.batch.plen[l]), int(left.batch.wk[l]), threshold, right.q, grams)
			counts := right.gramCounts(&f)
			rows := make([]int, 0, len(counts))
			for r := range counts {
				rows = append(rows, r)
			}
			// Rows sharing no position-compatible gram can still be true
			// matches when the count filter has no power for the pair;
			// sweep them in descending weak order until it regains power,
			// so glottal-free corpora pay nothing.
			if f.ZeroGramsCanMatch() {
				for _, r := range ridx.sweep {
					if f.CountHasPower(int(right.batch.wk[r])) {
						break
					}
					if _, seen := counts[r]; !seen {
						rows = append(rows, r)
					}
				}
			}
			return rows, func(r int, st *Stats) bool { return f.Admit(right.batch, r, counts[r], st) }
		}
	case Indexed:
		candidates = func(_ *Lane, _ int, lp phoneme.String) ([]int, func(int, *Stats) bool) {
			return right.grouped[right.op.encoder.Encode(lp)], nil
		}
	default:
		return nil, Stats{}, fmt.Errorf("core: unknown strategy %v", strat)
	}
	chunks, st := RunMorsels(left.Len(), o.workers, func(ln *Lane, lo, hi int) []Pair {
		pm := left.op.newMatcher(kern)
		defer pm.release()
		var out []Pair
		for l := lo; l < hi; l++ {
			lp := left.batch.phon.View(l)
			if lp == nil {
				continue
			}
			pm.SetPattern(lp, threshold)
			rows, admit := candidates(ln, l, lp)
			for _, r := range rows {
				if right.batch.phon.RowLen(r) == 0 {
					continue
				}
				if requireDifferentLang && left.texts[l].Lang == right.texts[r].Lang {
					continue
				}
				ln.Stats.Rows++
				if admit != nil && !admit(r, &ln.Stats) {
					continue
				}
				ln.Stats.Candidates++
				if pm.Match(right.batch, r, ln) {
					out = append(out, Pair{Left: l, Right: r})
				}
			}
		}
		return out
	})
	out := MergeChunks(chunks)
	// The q-gram strategy discovers candidates in hash order; normalize
	// so all strategies return deterministically ordered results.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	st.Matches = len(out)
	return out, st, nil
}

// SelfJoin runs Join of a corpus with itself, returning each unordered
// pair once (Left < Right).
func SelfJoin(c *Corpus, threshold float64, requireDifferentLang bool, strat Strategy, opts ...ExecOption) ([]Pair, Stats, error) {
	pairs, st, err := Join(c, c, threshold, requireDifferentLang, strat, opts...)
	if err != nil {
		return nil, st, err
	}
	out := pairs[:0]
	for _, p := range pairs {
		if p.Left < p.Right {
			out = append(out, p)
		}
	}
	st.Matches = len(out)
	return out, st, nil
}
