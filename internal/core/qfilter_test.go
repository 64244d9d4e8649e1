package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"lexequal/internal/phoneme"
)

// filterPairs is the pair table of TestQGramFilterNeverDismissesAMatch:
// projected lengths from 1 to 8 on either side, zero to three weak
// phonemes per string, and the edits the budget arithmetic exists for —
// glottal↔clustermate substitutions (/ha/~/ka/, which move the
// projection by a unit for ICSC), glottal indels (which leave it
// untouched), intra- and cross-cluster substitutions, strong indels.
var filterPairs = [][2]string{
	{"ha", "ka"}, {"ka", "ha"}, {"ha", "a"}, {"aha", "aka"}, {"aha", "aa"}, {"oh", "ok"},
	{"hahn", "kahn"}, {"hahn", "khan"}, {"kahn", "khan"}, {"han", "kan"}, {"han", "an"},
	{"hoho", "koko"}, {"hoho", "oo"}, {"hoho", "hoko"}, {"koko", "kok"},
	{"neːru", "neːhru"}, {"neːhru", "neːru"}, {"neːhru", "neːkru"}, {"neːru", "nero"},
	{"neːru", "meːru"}, {"neːru", "neːrut"}, {"neːru", "eːru"}, {"neːhru", "nehhru"},
	{"gaːndʱi", "gandi"}, {"gaːndʱi", "kaːndi"}, {"gaːndʱi", "gaːnhdʱi"},
	{"kæθi", "kæti"}, {"kæθi", "hæθi"}, {"kæθi", "kæθih"},
	{"dekart", "dehart"}, {"dekart", "dekarth"}, {"dekart", "tekart"}, {"dekart", "dekar"},
	{"a", "h"}, {"h", "k"}, {"hh", "kk"}, {"hah", "kak"}, {"hahah", "kakak"},
	{"neːru", "gaːndʱi"}, {"ha", "neːhru"},
}

// TestQGramFilterNeverDismissesAMatch is the one property every q-gram
// plan rests on: for any pair the scalar DP accepts, the shared filter
// admits it — through either evidence path (probe-time counts, deferred
// displacement lists), through the pre-fetch decision on a stored
// Summary, and through the zero-gram regime tests that let a source skip
// or stop its residual sweep. SigFilter, the batched sibling on the same
// bounds, must admit it too.
func TestQGramFilterNeverDismissesAMatch(t *testing.T) {
	accepted, dismissed := 0, 0
	for _, icsc := range []float64{0, 0.25, 1} {
		op := MustNew(Options{ICSC: icsc, ICSCSet: true})
		for _, q := range []int{2, 3, 4} {
			for _, thr := range []float64{0, 0.1, 0.25, 0.3, 0.5, 1} {
				for _, pair := range filterPairs {
					for _, swap := range []bool{false, true} {
						pat, cand := phoneme.MustParse(pair[0]), phoneme.MustParse(pair[1])
						if swap {
							pat, cand = cand, pat
						}
						name := fmt.Sprintf("icsc=%v q=%d e=%v /%s/~/%s/", icsc, q, thr, pat, cand)
						f := op.NewQGramFilter(pat, thr, q)
						b := op.BuildBatch([]phoneme.String{cand}, KernelScalar, q)
						cweak := int(b.wk[0])

						// Evidence, gathered the way each kind of source does.
						table := f.Table()
						shared := 0
						var disps []int32
						for _, cg := range sigGrams(op.encoder.Project(cand), q) {
							positions, hit := table[cg.key]
							if !hit {
								continue
							}
							for _, qpos := range positions {
								if f.positionOK(qpos, cg.pos, cweak) {
									shared++
								}
							}
							if d, ok := f.Displacement(positions, cg.pos); ok {
								disps = append(disps, d)
							}
						}

						var st Stats
						byCount := f.Admit(b, 0, shared, &st)
						byDisps := f.AdmitWithin(b, 0, disps, &st)
						// The stored-summary path: what a posting carries of the
						// candidate decides exactly as the batch columns do, and an
						// unknown field defers the decision, uncounted.
						var pre Stats
						plen, weak := Summary(cand)
						if plen != int(b.plen[0]) || weak != cweak {
							t.Fatalf("%s: Summary = (%d, %d), the batch columns hold (%d, %d)", name, plen, weak, b.plen[0], cweak)
						}
						if f.AdmitSummary(plen, weak, disps, &pre) != byDisps || pre.PrunedLength+pre.PrunedCount != btoi(!byDisps) {
							t.Errorf("%s: pre-fetch decision on (%d, %d, %v) differs from AdmitWithin's %v (%+v)", name, plen, weak, disps, byDisps, pre)
						}
						pre = Stats{}
						if !f.AdmitSummary(SummaryUnknown, weak, disps, &pre) || !f.AdmitSummary(plen, SummaryUnknown, disps, &pre) || pre != (Stats{}) {
							t.Errorf("%s: an unknown summary field must defer the decision uncounted (%+v)", name, pre)
						}
						wmin, sweep := f.SweepFrom()
						if sweep != f.ZeroGramsCanMatch() || sweep && (f.CountHasPower(wmin) || wmin > 0 && !f.CountHasPower(wmin-1)) {
							t.Errorf("%s: SweepFrom = (%d, %v) is not where CountHasPower first fails", name, wmin, sweep)
						}
						sf := op.NewSigFilter(pat, thr, q)
						bySig := sf.Admit(b, 0, &st)
						pruned := st.PrunedLength + st.PrunedCount + st.PrunedSig
						if want := btoi(!byCount) + btoi(!byDisps) + btoi(!bySig); pruned != want {
							t.Errorf("%s: %d dismissals but %d pruned counts (%+v)", name, want, pruned, st)
						}
						if f.CountHasPower(cweak+1) && !f.CountHasPower(cweak) {
							t.Errorf("%s: CountHasPower is not monotone in the weak count", name)
						}
						if icsc == 0 && (!math.IsInf(f.capK, 1) || !f.ZeroGramsCanMatch()) {
							t.Errorf("%s: ICSC=0 has no finite cap, yet cap=%v zeroCanMatch=%v",
								name, f.capK, f.ZeroGramsCanMatch())
						}
						if !op.MatchPhonemes(pat, cand, thr) {
							if !byCount {
								dismissed++
							}
							continue
						}
						accepted++
						if !byCount || !byDisps || !bySig {
							t.Errorf("%s: the DP accepts, but Admit=%v AdmitWithin=%v SigFilter=%v (shared=%d disps=%v)",
								name, byCount, byDisps, bySig, shared, disps)
						}
						if len(disps) == 0 && !f.ZeroGramsCanMatch() {
							t.Errorf("%s: the DP accepts a zero-gram candidate, but ZeroGramsCanMatch is false", name)
						}
						if shared == 0 && (!f.ZeroGramsCanMatch() || f.CountHasPower(cweak)) {
							t.Errorf("%s: the DP accepts a zero-gram candidate the sweep would skip (zeroCanMatch=%v hasPower=%v)",
								name, f.ZeroGramsCanMatch(), f.CountHasPower(cweak))
						}
						if len(disps) == 0 && (!sweep || cweak < wmin) {
							t.Errorf("%s: the DP accepts a zero-gram candidate with %d weak phonemes, outside the sweep from %d (%v)",
								name, cweak, wmin, sweep)
						}
					}
				}
			}
		}
	}
	// The table must exercise both outcomes, or the property is vacuous.
	if accepted < 500 || dismissed < 500 {
		t.Errorf("table too weak: %d accepted pairs, %d filter dismissals", accepted, dismissed)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestVerifyWidthZeroIsGOMAXPROCS pins what Parallel(0) means for the
// shared selection loop (and so for every db plan, which passes
// LexConfig.Workers straight through): the candidates are verified on
// GOMAXPROCS lanes. Each morsel's first admit call waits until that many
// distinct lanes have arrived, so a narrower pool shows up as missing
// lanes once the wait times out.
func TestVerifyWidthZeroIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	op := newOp(t)
	width := ResolveWorkers(0)
	if width != 3 {
		t.Fatalf("ResolveWorkers(0) = %d, want GOMAXPROCS = 3", width)
	}
	cands := make([]phoneme.String, width*MorselSize)
	for i := range cands {
		cands[i] = phoneme.MustParse("neːru")
	}
	var mu sync.Mutex
	lanes := map[*Stats]bool{} // a lane's private Stats identifies it
	all := make(chan struct{})
	admit := func(_ *Batch, i int, st *Stats) bool {
		if i%MorselSize == 0 {
			mu.Lock()
			lanes[st] = true
			if len(lanes) == width {
				close(all)
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(2 * time.Second):
			}
		}
		return true
	}
	idx, st := op.Verify(phoneme.MustParse("neːru"), 0.25, len(cands), sliceSource(cands), 0, admit, Parallel(0))
	if len(lanes) != width {
		t.Errorf("Parallel(0) verified on %d lanes, want %d", len(lanes), width)
	}
	if len(idx) != len(cands) || st.Candidates != len(cands) {
		t.Errorf("verified %d of %d candidates (%+v)", len(idx), len(cands), st)
	}
}
