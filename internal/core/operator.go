// Package core implements the LexEQUAL operator of the paper: matching
// multiscript strings by transforming them to phoneme strings (via TTP
// converters) and comparing those with a threshold-bounded clustered
// edit distance — the algorithm of Figure 8 — together with the three
// execution strategies evaluated in §5 (naive scan, q-gram filtering,
// phonetic indexing).
package core

import (
	"fmt"
	"sync"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/soundex"
	"lexequal/internal/ttp"
)

// Text is a language-tagged string: the unit of multiscript data. The
// paper assumes Unicode attribute values tagged with their language
// (footnote 1); Text is exactly that pair.
type Text struct {
	Value string
	Lang  script.Language
}

// String renders the text with its language tag.
func (t Text) String() string { return fmt.Sprintf("%s[%s]", t.Value, t.Lang) }

// Result is the three-valued outcome of the LexEQUAL algorithm.
type Result int8

// LexEQUAL outcomes (Figure 8).
const (
	False      Result = iota // strings do not match within the threshold
	True                     // strings match within the threshold
	NoResource               // a language lacks a TTP transformation
)

func (r Result) String() string {
	switch r {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	case NoResource:
		return "NORESOURCE"
	default:
		return fmt.Sprintf("Result(%d)", int8(r))
	}
}

// Options configure an Operator.
type Options struct {
	// Registry supplies TTP converters; nil means ttp.Default().
	Registry *ttp.Registry
	// Clusters is the phoneme partition for the clustered cost model;
	// nil means phoneme.DefaultClusters().
	Clusters *phoneme.Clusters
	// ICSC is the intra-cluster substitution cost in [0,1]. The paper's
	// recommended operating point is 0.25–0.5; the zero value selects
	// 0.25 unless ICSCSet marks an explicit zero.
	ICSC float64
	// ICSCSet marks ICSC as explicitly provided (allowing the Soundex
	// limit ICSC = 0).
	ICSCSet bool
	// WeakIndel discounts insertion/deletion of glottals and schwa (see
	// editdist.Clustered). The zero value selects 0.5 unless
	// WeakIndelSet marks an explicit zero (uniform indels).
	WeakIndel    float64
	WeakIndelSet bool
	// DefaultThreshold is used by Match when the caller passes a
	// negative threshold; the zero value selects 0.30 (the knee of the
	// paper's precision-recall curves).
	DefaultThreshold float64
	// CacheSize bounds the phoneme-string cache (entries); 0 selects
	// 64k entries, negative disables caching.
	CacheSize int
}

// DefaultICSC and DefaultThreshold are the paper's recommended operating
// point (§4.3: cost 0.25–0.5, threshold 0.25–0.35); DefaultWeakIndel is
// this implementation's glottal/schwa indel discount.
const (
	DefaultICSC      = 0.25
	DefaultThreshold = 0.30
	DefaultWeakIndel = 0.5
)

// Operator is a configured LexEQUAL matcher. It is safe for concurrent
// use.
type Operator struct {
	registry  *ttp.Registry
	clusters  *phoneme.Clusters
	cost      editdist.CostModel
	encoder   *soundex.Encoder // shared projection/grouping encoder
	icsc      float64
	weak      float64
	threshold float64

	// kern is cost compiled for the bit-parallel kernel, nil when the
	// model does not compile. It is never prepared: batch builders read
	// only its model-level state (CandSig), and matchers prepare
	// pattern-state copies taken from kpool.
	kern  *editdist.Bitvec
	kpool sync.Pool

	cacheCap int
	mu       sync.RWMutex
	cache    map[cacheKey]phoneme.String
}

type cacheKey struct {
	lang script.Language
	text string
}

// New builds an operator from options.
func New(opts Options) (*Operator, error) {
	reg := opts.Registry
	if reg == nil {
		reg = ttp.Default()
	}
	cl := opts.Clusters
	if cl == nil {
		cl = phoneme.DefaultClusters()
	}
	icsc := opts.ICSC
	if !opts.ICSCSet && icsc == 0 {
		icsc = DefaultICSC
	}
	weak := opts.WeakIndel
	if !opts.WeakIndelSet && weak == 0 {
		weak = DefaultWeakIndel
	}
	cost, err := editdist.NewClusteredWeak(cl, icsc, weak)
	if err != nil {
		return nil, err
	}
	thr := opts.DefaultThreshold
	if thr == 0 {
		thr = DefaultThreshold
	}
	if thr < 0 || thr > 1 {
		return nil, fmt.Errorf("core: default threshold %v outside [0,1]", thr)
	}
	cap := opts.CacheSize
	if cap == 0 {
		cap = 1 << 16
	}
	op := &Operator{
		registry:  reg,
		clusters:  cl,
		cost:      cost,
		encoder:   soundex.NewEncoder(cl),
		icsc:      icsc,
		weak:      weak,
		threshold: thr,
		cacheCap:  cap,
	}
	if cap > 0 {
		op.cache = make(map[cacheKey]phoneme.String)
	}
	if op.kern, _ = editdist.NewBitvec(cost); op.kern != nil {
		op.kpool.New = func() any {
			bv := *op.kern
			return &bv
		}
	}
	return op, nil
}

// MustNew is New that panics on error, for tests and constant setups.
func MustNew(opts Options) *Operator {
	op, err := New(opts)
	if err != nil {
		panic(err)
	}
	return op
}

// Registry exposes the operator's TTP registry.
func (op *Operator) Registry() *ttp.Registry { return op.registry }

// Clusters exposes the phoneme partition in use.
func (op *Operator) Clusters() *phoneme.Clusters { return op.clusters }

// Encoder exposes the operator's projection/grouping encoder over
// Clusters (read-only, shared).
func (op *Operator) Encoder() *soundex.Encoder { return op.encoder }

// Cost exposes the cost model (for benchmarks and explain output).
func (op *Operator) Cost() editdist.CostModel { return op.cost }

// CostEqual reports whether two operators share one edit-cost model
// (built-in models are comparable values, so parameters compare by
// value). Joins verify under the left operator's model; when the models
// differ the right corpus's precomputed kernel columns are unusable and
// the join runs on the scalar kernel.
func (op *Operator) CostEqual(o *Operator) bool { return op.cost == o.cost }

// ICSC returns the intra-cluster substitution cost in use.
func (op *Operator) ICSC() float64 { return op.icsc }

// WeakIndel returns the weak-phoneme indel discount in use (0 = none).
func (op *Operator) WeakIndel() float64 { return op.weak }

// Threshold returns the default match threshold.
func (op *Operator) Threshold() float64 { return op.threshold }

// Transform converts text to its phoneme string via the registered TTP
// converter for lang, with caching: the paper's §5 optimization of
// deriving the phonemic string once per stored value rather than per
// comparison.
func (op *Operator) Transform(text string, lang script.Language) (phoneme.String, error) {
	key := cacheKey{lang, text}
	// cacheCap is immutable after New, so it gates cache use without a
	// lock; the cache map itself (reassigned wholesale on reset) is only
	// ever touched under op.mu.
	cached := op.cacheCap > 0
	if cached {
		op.mu.RLock()
		s, ok := op.cache[key]
		op.mu.RUnlock()
		if ok {
			return s, nil
		}
	}
	s, err := op.registry.Convert(text, lang)
	if err != nil {
		return nil, err
	}
	if cached {
		op.mu.Lock()
		if len(op.cache) >= op.cacheCap {
			// Wholesale reset: simple, bounded, and the workloads here
			// (repeated scans over a fixed column) repopulate quickly.
			op.cache = make(map[cacheKey]phoneme.String)
		}
		op.cache[key] = s
		op.mu.Unlock()
	}
	return s, nil
}

// TransformText is Transform over a Text value.
func (op *Operator) TransformText(t Text) (phoneme.String, error) {
	return op.Transform(t.Value, t.Lang)
}

// Match implements the LexEQUAL algorithm of Figure 8: both strings are
// transformed to phoneme strings and matched when their clustered edit
// distance is at most threshold × the shorter phonemic length. A
// negative threshold selects the operator's default. Languages without
// a TTP converter yield NoResource, not an error.
func (op *Operator) Match(a, b Text, threshold float64) (Result, error) {
	if threshold < 0 {
		threshold = op.threshold
	}
	if threshold > 1 {
		return False, fmt.Errorf("core: match threshold %v outside [0,1]", threshold)
	}
	if !op.registry.Has(a.Lang) || !op.registry.Has(b.Lang) {
		return NoResource, nil
	}
	ta, err := op.Transform(a.Value, a.Lang)
	if err != nil {
		return False, err
	}
	tb, err := op.Transform(b.Value, b.Lang)
	if err != nil {
		return False, err
	}
	if op.MatchPhonemes(ta, tb, threshold) {
		return True, nil
	}
	return False, nil
}

// MatchPhonemes applies the threshold test directly to phoneme strings:
// editdistance(ta, tb) ≤ threshold × min(|ta|, |tb|). It is the kernel
// shared by all three execution strategies.
func (op *Operator) MatchPhonemes(ta, tb phoneme.String, threshold float64) bool {
	smaller := len(ta)
	if len(tb) < smaller {
		smaller = len(tb)
	}
	bound := threshold * float64(smaller)
	_, ok := editdist.DistanceBounded(ta, tb, op.cost, bound)
	return ok
}

// MatchPhonemesScratch is MatchPhonemes with a caller-supplied DP
// scratch, the allocation-free form used by the morsel workers (each
// worker owns one scratch for its whole scan).
func (op *Operator) MatchPhonemesScratch(ta, tb phoneme.String, threshold float64, s *editdist.Scratch) bool {
	smaller := len(ta)
	if len(tb) < smaller {
		smaller = len(tb)
	}
	bound := threshold * float64(smaller)
	_, ok := editdist.DistanceBoundedScratch(ta, tb, op.cost, bound, s)
	return ok
}

// Bound returns the absolute edit-distance budget the operator allows
// for a pair of phoneme strings at the given threshold (exposed for the
// filter strategies, which need k to parameterize q-gram predicates).
func (op *Operator) Bound(ta, tb phoneme.String, threshold float64) float64 {
	smaller := len(ta)
	if len(tb) < smaller {
		smaller = len(tb)
	}
	return threshold * float64(smaller)
}

// Explanation reports why a pair matched or not.
type Explanation struct {
	A, B       Text
	PhonemesA  phoneme.String
	PhonemesB  phoneme.String
	Distance   float64
	Bound      float64
	Threshold  float64
	Matched    bool
	NoResource bool
	Alignment  editdist.Alignment
}

// String renders a human-readable explanation.
func (e Explanation) String() string {
	if e.NoResource {
		return fmt.Sprintf("%s vs %s: NORESOURCE (missing TTP converter)", e.A, e.B)
	}
	verdict := "NO MATCH"
	if e.Matched {
		verdict = "MATCH"
	}
	return fmt.Sprintf("%s /%s/ vs %s /%s/: distance %.3g vs bound %.3g (threshold %.2f) => %s\n  alignment: %s",
		e.A, e.PhonemesA, e.B, e.PhonemesB, e.Distance, e.Bound, e.Threshold, verdict, e.Alignment)
}

// Explain runs the match and returns the full evidence trail (phoneme
// strings, distance, bound, optimal alignment). Intended for the CLI
// and for debugging match quality; slower than Match.
func (op *Operator) Explain(a, b Text, threshold float64) (Explanation, error) {
	if threshold < 0 {
		threshold = op.threshold
	}
	ex := Explanation{A: a, B: b, Threshold: threshold}
	if !op.registry.Has(a.Lang) || !op.registry.Has(b.Lang) {
		ex.NoResource = true
		return ex, nil
	}
	ta, err := op.Transform(a.Value, a.Lang)
	if err != nil {
		return ex, err
	}
	tb, err := op.Transform(b.Value, b.Lang)
	if err != nil {
		return ex, err
	}
	ex.PhonemesA, ex.PhonemesB = ta, tb
	ex.Alignment = editdist.Align(ta, tb, op.cost)
	ex.Distance = ex.Alignment.Cost
	ex.Bound = op.Bound(ta, tb, threshold)
	ex.Matched = ex.Distance <= ex.Bound
	return ex, nil
}
