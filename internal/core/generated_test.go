package core_test

// Generated multiscript rows, which only this external test package can
// build (the dataset package imports core): one more input to the
// kernel×width determinism contract, and the ablations of DESIGN.md §5
// that run over a core.Corpus.

import (
	"fmt"
	"sync"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/phoneme"
	"lexequal/internal/ttp"
)

// genRows is how many rows the ablations' queries are spread over:
// one query every genRows/16 rows.
const genRows = 20000

var (
	genOnce  sync.Once
	genTexts []core.Text
	genErr   error
)

// generated returns the first n of genRows rows of dataset.Generate
// over the whole paper lexicon; a shorter Generate is a prefix of it.
func generated(tb testing.TB, n int) []core.Text {
	tb.Helper()
	genOnce.Do(func() {
		lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
		if err != nil {
			genErr = err
			return
		}
		for _, e := range dataset.Generate(lex, genRows) {
			genTexts = append(genTexts, e.Text)
		}
	})
	if genErr != nil {
		tb.Fatal(genErr)
	}
	return genTexts[:n]
}

// spread picks k queries spread evenly across texts.
func spread(texts []core.Text, k int) []core.Text {
	var qs []core.Text
	for i := 0; i < len(texts) && len(qs) < k; i += len(texts) / k {
		qs = append(qs, texts[i])
	}
	return qs
}

func init() {
	// 2,000 generated rows, 5 spread queries and a 500-row self-join
	// at threshold 0.25: multiscript rows and generated pairs the
	// English catalog does not have.
	core.KernelInputs = append(core.KernelInputs, func(tb testing.TB) core.KernelInput {
		texts := generated(tb, 2000)
		return core.KernelInput{
			Name:      "generated",
			Select:    texts,
			Queries:   spread(texts, 5),
			SelectThr: 0.25,
			Join:      texts[:500],
			JoinThr:   0.25,
		}
	})
}

// ablationThr is the threshold of the ablations that compare
// strategies' costs.
const ablationThr = 0.25

// ablationCorpus is the ablations' input: an operator, 4,000 generated
// rows and 16 queries spread over genRows rows.
func ablationCorpus(b *testing.B) (*core.Operator, []core.Text, []core.Text) {
	b.Helper()
	op, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return op, generated(b, 4000), spread(generated(b, genRows), 16)
}

// Per-value phoneme caching (the paper's "derive on demand" vs
// store-once design, §3.1).
func BenchmarkAblation_PhonemeCacheOn(b *testing.B) {
	op, _ := core.New(core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Transform("Jawaharlal", "english"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PhonemeCacheOff(b *testing.B) {
	op, _ := core.New(core.Options{CacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Transform("Jawaharlal", "english"); err != nil {
			b.Fatal(err)
		}
	}
}

// Gram length: filter selectivity vs table size.
func BenchmarkAblation_QgramQ(b *testing.B) {
	op, texts, queries := ablationCorpus(b)
	for _, q := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			corpus, err := op.NewCorpusQ(texts, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.Select(queries[i%len(queries)], ablationThr, nil, core.QGram); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Cluster granularity: candidate-set size of the phonetic index.
func BenchmarkAblation_Clusters(b *testing.B) {
	_, texts, queries := ablationCorpus(b)
	for _, cl := range []*phoneme.Clusters{phoneme.CoarseClusters(), phoneme.DefaultClusters(), phoneme.FineClusters()} {
		b.Run(cl.Name(), func(b *testing.B) {
			op, err := core.New(core.Options{Clusters: cl})
			if err != nil {
				b.Fatal(err)
			}
			corpus, err := op.NewCorpus(texts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			candidates := 0
			for i := 0; i < b.N; i++ {
				_, st, err := corpus.Select(queries[i%len(queries)], ablationThr, nil, core.Indexed)
				if err != nil {
					b.Fatal(err)
				}
				candidates += st.Candidates
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/query")
		})
	}
}

// Metric index (BK-tree, the paper's future-work item) vs the naive
// scan: same exact results, sublinear distance evaluations.
func BenchmarkAblation_MetricIndex(b *testing.B) {
	op, texts, queries := ablationCorpus(b)
	corpus, err := op.NewCorpus(texts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if mi := corpus.NewMetricIndex(); mi.Size() == 0 {
				b.Fatal("empty index")
			}
		}
	})
	mi := corpus.NewMetricIndex()
	b.Run("select", func(b *testing.B) {
		evals := 0
		for i := 0; i < b.N; i++ {
			_, st, err := corpus.SelectMetric(mi, queries[i%len(queries)], 0.1, nil)
			if err != nil {
				b.Fatal(err)
			}
			evals += st.Candidates
		}
		b.ReportMetric(float64(evals)/float64(b.N), "distevals/query")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := corpus.Select(queries[i%len(queries)], 0.1, nil, core.Naive); err != nil {
				b.Fatal(err)
			}
		}
	})
}
