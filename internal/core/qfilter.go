package core

import (
	"math"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
)

// sigGram is one positional q-gram of a signature projection: the
// rendered key (as stored in every gram index) and its 1-based position.
type sigGram struct {
	key string
	pos int
}

// sigGrams extracts the positional q-grams of a projection.
func sigGrams(proj phoneme.String, q int) []sigGram {
	grams := qgram.Extract(proj, q)
	out := make([]sigGram, len(grams))
	for i, g := range grams {
		out[i] = sigGram{key: g.Key(), pos: g.Pos}
	}
	return out
}

// QGramFilter is the pattern side of the §5.2 / Figure 14 q-gram filters
// for one query string or one join probe row. It is the only place the
// length / count / position arithmetic and its budget are written; the
// strategies differ only in where a candidate's gram evidence comes
// from.
//
// The three filters run in the space of the signature projection
// (glottals dropped, phonemes folded to their cluster representatives):
// under the clustered cost model the cheap edits — intra-cluster
// substitutions and glottal indels — leave the projection untouched, so
// an edit-cost budget k admits at most k projected-space unit edits, the
// premise of the filters. The budget is per pair: e·|pattern| (the paper
// uses the query length in all three predicates) slacked by both
// strings' weak counts and capped by the cost model's floor (budget).
//
// A source that knows a candidate's weak count while it probes its gram
// index (the in-memory Corpus) applies the position test per posting
// and hands Admit a count. A source whose postings carry a summary of
// the row (the stored covering index: projected length and weak count,
// see Summary) keeps each matching gram's best Displacement within the
// candidate-independent cap and hands AdmitSummary the list before it
// fetches the row, then AdmitWithin the same list against the fetched
// row's own columns. Candidates that share no gram at all still match
// when the count filter has no power; ZeroGramsCanMatch, CountHasPower
// and SweepFrom bound that residual sweep.
type QGramFilter struct {
	q     int
	e     float64
	qlen  int       // pattern length: the base budget is e·qlen
	plen  int       // projected pattern length
	weak  int       // pattern weak-phoneme count
	capK  float64   // budgetCap(e·qlen)
	grams []sigGram // the projection's positional grams, by position
}

// NewQGramFilter prepares the filter for one pattern at gram length q.
func (op *Operator) NewQGramFilter(qp phoneme.String, threshold float64, q int) QGramFilter {
	pr := op.encoder.Project(qp)
	return op.qgramFilter(len(qp), len(pr), editdist.WeakCount(qp), threshold, q, sigGrams(pr, q))
}

// qgramFilter assembles a filter from precomputed pattern columns (a
// join probe row's come from its corpus); grams may be nil for a filter
// that only bounds lengths and counts.
func (op *Operator) qgramFilter(qlen, plen, weak int, threshold float64, q int, grams []sigGram) QGramFilter {
	return QGramFilter{
		q: q, e: threshold, qlen: qlen, plen: plen, weak: weak,
		capK:  op.budgetCap(threshold * float64(qlen)),
		grams: grams,
	}
}

// budgetCap is the candidate-independent ceiling on the projected-
// space edit budget: every edit that changes the signature projection
// costs at least the model's floor (cross-cluster substitutions and
// strong indels cost 1, glottal↔strong intra-cluster substitutions cost
// ICSC; discounted glottal indels never change the projection because
// the projection drops glottals), so a pair within clustered cost
// `bound` admits at most bound/floor projected unit edits. An ICSC of
// zero prices some projection-changing edits free, so no finite cap
// exists there. The filter uses the cap where the candidate (and hence
// its weak count) is not yet in hand: probe-time pruning and the
// decision whether zero-gram candidates must still be swept.
func (op *Operator) budgetCap(bound float64) float64 {
	switch cm := op.cost.(type) {
	case editdist.Clustered:
		if cm.ICSC >= 1 {
			return bound
		}
		if cm.ICSC == 0 {
			return math.Inf(1)
		}
		if c := bound / cm.ICSC; c < 1e12 {
			return c
		}
		// An absurdly small ICSC yields a quotient with no filtering
		// power (and unsafe to truncate to int); treat it as unbounded.
		return math.Inf(1)
	default:
		// Unit charges 1 per projection-changing edit; other models keep
		// the historical bare bound (their floor is not analyzable here).
		return bound
	}
}

// budget converts the clustered-cost bound e·qlen into a sound budget on
// projected-space unit edits against a candidate with cweak weak
// phonemes. Most projection-changing edits cost at least one full unit
// (the cost model's discounted-indel set equals the projection's drop
// set), but the default cluster set places glottals in the same cluster
// as dorsal obstruents, so an ICSC substitution between a glottal and a
// strong clustermate changes the projection for less than a unit — as in
// /ha/~/ka/. Each such edit consumes a distinct weak occurrence of one
// of the two strings, so bound + weak(pattern) + weak(candidate) is
// sound; independently, the cost model's cap bounds the budget without
// reference to the candidate. The tighter of the two applies.
func (f *QGramFilter) budget(cweak int) float64 {
	b := f.e*float64(f.qlen) + float64(f.weak+cweak)
	if f.capK < b {
		b = f.capK
	}
	return b
}

// bounds runs the Length filter against a candidate of projected length
// cplen at budget k and, when it passes, returns the Count filter's
// minimum shared-gram count (≤ 0: the count filter has no power).
func (f *QGramFilter) bounds(cplen int, k float64) (need int, ok bool) {
	if !qgram.LengthOK(f.plen, cplen, k) {
		return 0, false
	}
	return qgram.CountThreshold(f.plen, cplen, f.q, k), true
}

// positionOK is the Position filter for one (pattern gram, candidate
// gram) posting, for sources that know the candidate's weak count while
// probing.
func (f *QGramFilter) positionOK(qpos, cpos, cweak int) bool {
	return qgram.PositionOK(qpos, cpos, f.budget(cweak))
}

// admit runs the length and count filters with their accounting.
func (f *QGramFilter) admit(cplen int, k float64, shared int, st *Stats) bool {
	need, ok := f.bounds(cplen, k)
	if !ok {
		st.PrunedLength++
		return false
	}
	if need > 0 && shared < need {
		st.PrunedCount++
		return false
	}
	return true
}

// Admit decides batch row i given shared, the number of its grams that
// passed the position test against a pattern gram of equal content. The
// batch must carry the prefilter columns (sigQ > 0). A false return is a
// proven dismissal, counted as PrunedLength or PrunedCount.
func (f *QGramFilter) Admit(b *Batch, i, shared int, st *Stats) bool {
	return f.admit(int(b.plen[i]), f.budget(int(b.wk[i])), shared, st)
}

// SummaryUnknown stands for a Summary field a source could not store.
const SummaryUnknown = -1

// Summary is what a stored posting carries of its row so the filters
// can run before the row is fetched: the projected length and the weak
// count, the batch's plen and wk columns for the same phonemes (the
// projection drops exactly the weak phonemes).
func Summary(p phoneme.String) (plen, weak int) {
	weak = editdist.WeakCount(p)
	return len(p) - weak, weak
}

// AdmitSummary is Admit for a candidate known only by its Summary and
// by evidence gathered before it was: disps holds one Displacement per
// matching gram, and those within the pair's exact budget are the
// shared count. An unknown field proves nothing — the candidate is
// admitted uncounted, to be fetched and decided by AdmitWithin.
func (f *QGramFilter) AdmitSummary(plen, weak int, disps []int32, st *Stats) bool {
	if plen < 0 || weak < 0 {
		return true
	}
	k := f.budget(weak)
	shared := 0
	for _, d := range disps {
		if float64(d) <= k {
			shared++
		}
	}
	return f.admit(plen, k, shared, st)
}

// AdmitWithin is AdmitSummary fed from the columns of batch row i.
func (f *QGramFilter) AdmitWithin(b *Batch, i int, disps []int32, st *Stats) bool {
	return f.AdmitSummary(int(b.plen[i]), int(b.wk[i]), disps, st)
}

// Table returns the pattern's gram → positions table, the build side of
// the Figure 14 gram join for sources that probe a keyed gram index.
func (f *QGramFilter) Table() map[string][]int {
	t := make(map[string][]int, len(f.grams))
	for _, g := range f.grams {
		t[g.key] = append(t[g.key], g.pos)
	}
	return t
}

// Displacement is the position test at the budget cap: the smallest
// distance from a candidate gram at pos to the pattern positions of the
// same gram, and whether any pair budget can admit it.
func (f *QGramFilter) Displacement(positions []int, pos int) (int32, bool) {
	best := math.MaxInt32
	for _, qpos := range positions {
		d := qpos - pos
		if d < 0 {
			d = -d
		}
		if d < best {
			best = d
		}
	}
	return int32(best), float64(best) <= f.capK
}

// countNeed is the count threshold at budget k minimized over admissible
// candidate lengths (CountThreshold's second argument 0 selects it).
func (f *QGramFilter) countNeed(k float64) int {
	return qgram.CountThreshold(f.plen, 0, f.q, k)
}

// ZeroGramsCanMatch reports whether a candidate sharing no compatible
// gram can still pass the count filter at the budget cap (very short
// strings, or weak slack swallowing the whole budget). When false, a
// source may ignore every candidate its gram probe did not surface.
func (f *QGramFilter) ZeroGramsCanMatch() bool {
	return math.IsInf(f.capK, 1) || f.countNeed(f.capK) <= 0
}

// CountHasPower reports whether the count filter dismisses zero-gram
// candidates with cweak weak phonemes. The threshold is monotone in the
// weak count, so a sweep in descending weak order may stop at the first
// candidate for which this holds.
func (f *QGramFilter) CountHasPower(cweak int) bool {
	return f.countNeed(f.budget(cweak)) > 0
}

// SweepFrom is the residual sweep's bound for a source ordered by
// ascending weak count: the smallest weak count at which CountHasPower
// fails, so zero-gram candidates with at least that many weak phonemes
// must still be looked at and no others. ok is false when no sweep is
// needed at all.
func (f *QGramFilter) SweepFrom() (wmin int, ok bool) {
	if !f.ZeroGramsCanMatch() {
		return 0, false
	}
	// The budget grows with the weak count until it meets the cap, where
	// ZeroGramsCanMatch has just said the filter has no power.
	for f.CountHasPower(wmin) {
		wmin++
	}
	return wmin, true
}

// SigFilter is the batched, coarser form of QGramFilter: projected-space
// length and Bloom gram-count checks decided from per-row batch columns
// with a couple of word operations, before any kernel work. Its budget
// is the pair's own edit bound e·min(|q|,|c|) plus both strings' weak
// counts, the same slack QGramFilter.budget argues for.
type SigFilter struct {
	f    QGramFilter // lengths, weak count and q; no gram table
	qsig uint64      // Bloom signature of the pattern's grams
}

// NewSigFilter prepares the prefilter for one query pattern; the batch
// side must have been built with sigQ = q.
func (op *Operator) NewSigFilter(qp phoneme.String, threshold float64, q int) SigFilter {
	pr := op.encoder.Project(qp)
	return SigFilter{
		f:    op.qgramFilter(len(qp), len(pr), editdist.WeakCount(qp), threshold, q, nil),
		qsig: qgram.Signature(pr, q),
	}
}

// Admit reports whether batch row i can possibly match within the
// threshold; a false return is a proven dismissal and bumps PrunedSig.
// Batches without prefilter columns admit everything.
func (sf *SigFilter) Admit(b *Batch, i int, st *Stats) bool {
	if b.gsig == nil {
		return true
	}
	f := &sf.f
	smaller := f.qlen
	if n := b.phon.RowLen(i); n < smaller {
		smaller = n
	}
	k := f.e*float64(smaller) + float64(f.weak+int(b.wk[i]))
	need, ok := f.bounds(int(b.plen[i]), k)
	if !ok || need > 0 && qgram.MaxShared(sf.qsig, b.gsig[i], f.plen+f.q-1) < need {
		st.PrunedSig++
		return false
	}
	return true
}
