package core

import (
	"reflect"
	"testing"

	"lexequal/internal/script"
)

// catalog is the Books.com author column from the paper's Figure 1
// (restricted to languages with converters), plus a few extra names.
func catalog() []Text {
	return []Text{
		en("Descartes"), // 0
		ta("நேரு"),      // 1  Nehru (Tamil)
		el("Σαρρη"),     // 2  Sarri
		en("Nero"),      // 3
		en("Nehru"),     // 4
		hi("नेहरु"),     // 5  Nehru (Hindi)
		en("Gandhi"),    // 6
		hi("गांधी"),     // 7  Gandhi (Hindi)
		ta("காந்தி"),    // 8  Gandhi (Tamil)
		en("Kathy"),     // 9
		en("Cathy"),     // 10
		{Value: "بهنسي", Lang: script.Arabic}, // 11: NORESOURCE row
	}
}

func buildCorpus(t *testing.T, op *Operator) *Corpus {
	t.Helper()
	c, err := op.NewCorpus(catalog())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusBasics(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	if c.Len() != 12 {
		t.Errorf("Len = %d", c.Len())
	}
	if got := c.Skipped(); len(got) != 1 || got[0] != 11 {
		t.Errorf("Skipped = %v", got)
	}
	if c.Phonemes(11) != nil {
		t.Error("NORESOURCE row has phonemes")
	}
	if c.Phonemes(4) == nil {
		t.Error("English row lacks phonemes")
	}
	if c.Q() != DefaultQ {
		t.Errorf("Q = %d", c.Q())
	}
	if c.Text(3).Value != "Nero" {
		t.Errorf("Text(3) = %v", c.Text(3))
	}
}

func TestCorpusRejectsBadQ(t *testing.T) {
	op := newOp(t)
	if _, err := op.NewCorpusQ(catalog(), 1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestSelectFindsCrossScriptMatches(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	got, st, err := c.Select(en("Nehru"), 0.30, nil, Naive)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 4: true, 5: true} // Tamil, English, Hindi Nehru
	for _, i := range got {
		if !want[i] && i != 3 { // Nero may appear at loose thresholds (paper §1)
			t.Errorf("unexpected match: %v", c.Text(i))
		}
	}
	for i := range want {
		if !containsInt(got, i) {
			ex, _ := op.Explain(en("Nehru"), c.Text(i), 0.30)
			t.Errorf("missing match %v: %v", c.Text(i), ex)
		}
	}
	if st.Matches != len(got) || st.Rows == 0 {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestSelectLanguageFilter(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	langs := NewLangSet(script.Hindi, script.Tamil)
	got, _, err := c.Select(en("Nehru"), 0.30, langs, Naive)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range got {
		if l := c.Text(i).Lang; l != script.Hindi && l != script.Tamil {
			t.Errorf("language filter leaked %v", c.Text(i))
		}
	}
	if !containsInt(got, 5) || !containsInt(got, 1) {
		t.Errorf("filtered select lost matches: %v", got)
	}
	// Wildcard set.
	if !NewLangSet().Contains(script.Greek) {
		t.Error("empty NewLangSet is not the wildcard")
	}
	if langs.Contains(script.Greek) {
		t.Error("explicit set contains unlisted language")
	}
}

func TestQGramSelectEquivalentToNaive(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	for _, query := range []Text{en("Nehru"), en("Gandhi"), en("Kathy"), el("Σαρρη")} {
		for _, thr := range []float64{0.1, 0.25, 0.3, 0.4} {
			naive, _, err := c.Select(query, thr, nil, Naive)
			if err != nil {
				t.Fatal(err)
			}
			qg, stq, err := c.Select(query, thr, nil, QGram)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(naive, qg) {
				t.Errorf("%v @%v: naive %v != qgram %v", query, thr, naive, qg)
			}
			if stq.Candidates > c.Len() {
				t.Errorf("qgram stats: %+v", stq)
			}
		}
	}
}

func TestQGramPrunesCandidates(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	_, stn, _ := c.Select(en("Nehru"), 0.25, nil, Naive)
	_, stq, _ := c.Select(en("Nehru"), 0.25, nil, QGram)
	if stq.Candidates >= stn.Rows {
		t.Errorf("q-gram filter pruned nothing: %d rows vs %d qgram candidates", stn.Rows, stq.Candidates)
	}
	// The q-gram plan's exact positional filter is at least as tight as
	// the naive plan's Bloom signature prefilter.
	if stq.Candidates > stn.Candidates {
		t.Errorf("qgram candidates %d > sig-prefiltered naive candidates %d", stq.Candidates, stn.Candidates)
	}
}

func TestIndexedSelectSubsetOfNaive(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	for _, query := range []Text{en("Nehru"), en("Gandhi"), en("Cathy")} {
		naive, _, err := c.Select(query, 0.3, nil, Naive)
		if err != nil {
			t.Fatal(err)
		}
		idx, _, err := c.Select(query, 0.3, nil, Indexed)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			if !containsInt(naive, i) {
				t.Errorf("%v: indexed produced non-match %v", query, c.Text(i))
			}
		}
	}
}

func TestIndexedSelectFindsSameSignatureMatches(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	// Kathy/Cathy share identical phonemes, hence identical signatures.
	got, _, err := c.Select(en("Kathy"), 0.2, nil, Indexed)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(got, 9) || !containsInt(got, 10) {
		t.Errorf("indexed select missed identical-phoneme rows: %v", got)
	}
}

func TestSelectInvalidThreshold(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	if _, _, err := c.Select(en("x"), 1.5, nil, Naive); err == nil {
		t.Error("threshold 1.5 accepted")
	}
}

func TestJoinStrategies(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	naive, stn, err := SelfJoin(c, 0.30, true, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if stn.Matches != len(naive) {
		t.Errorf("join stats inconsistent: %+v vs %d", stn, len(naive))
	}
	// The cross-language Nehru pairs and Gandhi pairs must be found.
	wantPairs := []Pair{{1, 4}, {1, 5}, {4, 5}, {6, 7}, {6, 8}, {7, 8}}
	for _, w := range wantPairs {
		if !containsPair(naive, w) {
			t.Errorf("naive join missing %v (%v ~ %v)", w, c.Text(w.Left), c.Text(w.Right))
		}
	}
	// Same-language pairs are excluded by the language predicate.
	for _, p := range naive {
		if c.Text(p.Left).Lang == c.Text(p.Right).Lang {
			t.Errorf("join kept same-language pair %v", p)
		}
	}
	// Q-gram join is exactly equivalent.
	qg, _, err := SelfJoin(c, 0.30, true, QGram)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(naive, qg) {
		t.Errorf("qgram join differs:\nnaive %v\nqgram %v", naive, qg)
	}
	// Indexed join is a subset.
	idx, _, err := SelfJoin(c, 0.30, true, Indexed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range idx {
		if !containsPair(naive, p) {
			t.Errorf("indexed join invented pair %v", p)
		}
	}
}

func containsPair(ps []Pair, p Pair) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func TestJoinWithoutLanguagePredicate(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	pairs, _, err := SelfJoin(c, 0.0, false, Naive)
	if err != nil {
		t.Fatal(err)
	}
	// Kathy/Cathy are both English and identical phonemically.
	if !containsPair(pairs, Pair{9, 10}) {
		t.Error("join without language predicate missed Kathy/Cathy")
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"": Naive, "naive": Naive, "udf": Naive,
		"qgram": QGram, "qgrams": QGram,
		"indexed": Indexed, "index": Indexed, "phonetic": Indexed,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("quantum"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if Naive.String() != "naive" || QGram.String() != "qgram" || Indexed.String() != "indexed" {
		t.Error("strategy names wrong")
	}
}

func TestNoResourceRowsNeverMatch(t *testing.T) {
	op := newOp(t)
	c := buildCorpus(t, op)
	for _, strat := range []Strategy{Naive, QGram, Indexed} {
		got, _, err := c.Select(en("Nehru"), 1.0, nil, strat)
		if err != nil {
			t.Fatal(err)
		}
		if containsInt(got, 11) {
			t.Errorf("%v matched the NORESOURCE row", strat)
		}
	}
}

// weakCatalog is a lexicon dominated by glottal-bearing names. The
// signature projection drops glottals, and the default cluster set
// places them with dorsal obstruents, so a cheap ICSC substitution like
// /ha/~/ka/ moves the projection by a full unit for a fraction of the
// budget — the exact surface the q-gram strategy's weak-count slack
// (QGramFilter.budget) exists for.
func weakCatalog() []Text {
	return []Text{
		en("Ha"),    // 0
		en("Ka"),    // 1
		en("Hahn"),  // 2
		en("Kahn"),  // 3
		en("Khan"),  // 4
		en("Han"),   // 5
		en("Aha"),   // 6
		en("Hoho"),  // 7
		en("Koko"),  // 8
		en("Oh"),    // 9
		en("Nehru"), // 10
		en("Neru"),  // 11
		en("Kathy"), // 12
		en("Cathy"), // 13
	}
}

// TestQGramEqualsNaiveOnWeakLexicon is the budget-slack regression: the
// unslacked strategy budget falsely dismissed pairs whose cheap
// glottal-substitution edits shift the projection (e.g. /ha/~/ka/),
// making StrategyQGram diverge from StrategyNaive. The two strategies
// must agree exactly on selects and self-joins over the weak lexicon.
func TestQGramEqualsNaiveOnWeakLexicon(t *testing.T) {
	op := newOp(t)
	c, err := op.NewCorpus(weakCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range weakCatalog() {
		for _, thr := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			naive, _, err := c.Select(query, thr, nil, Naive)
			if err != nil {
				t.Fatal(err)
			}
			qg, _, err := c.Select(query, thr, nil, QGram)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(naive, qg) {
				t.Errorf("%v @%v: naive %v != qgram %v", query, thr, naive, qg)
			}
		}
	}
	for _, thr := range []float64{0.2, 0.3, 0.5} {
		nj, _, err := SelfJoin(c, thr, false, Naive)
		if err != nil {
			t.Fatal(err)
		}
		qj, _, err := SelfJoin(c, thr, false, QGram)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nj, qj) {
			t.Errorf("self-join @%v: naive %v != qgram %v", thr, nj, qj)
		}
	}
	// The canonical hazard pair: /ka/ must find /ha/ under both plans
	// (distance is one intra-cluster substitution, well within 0.30×2).
	got, _, err := c.Select(en("Ka"), 0.30, nil, QGram)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(got, 0) {
		t.Error("qgram strategy falsely dismissed /ha/ for query /ka/")
	}
}
