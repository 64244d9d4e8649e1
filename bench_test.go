package lexequal

// Benchmarks, one per table and figure of the paper (see DESIGN.md §4
// for the experiment index), plus the ablations of DESIGN.md §5. The
// full-scale reproduction lives in cmd/quality and cmd/perf; these
// benches exercise the identical code paths at bench-friendly sizes so
// `go test -bench=.` regenerates the SHAPE of every result in minutes:
//
//	Table 1:  exact scan ≪ naive-UDF scan; exact join ≪ naive-UDF join
//	Table 2:  q-gram scan/join between the two
//	Table 3:  phonetic-index scan/join fastest
//	Fig 10/13: dataset construction and length distributions
//	Fig 11/12: the recall/precision sweep machinery
import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/db"
	"lexequal/internal/editdist"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/ttp"
)

// benchRows keeps the database fixture bench-sized; cmd/perf runs the
// full 200k-row experiment.
const (
	benchRows     = 20000
	benchJoinRows = 400 // the paper's 0.2% of 200k
	benchThr      = 0.25
)

type benchFixture struct {
	op      *core.Operator
	lex     *dataset.Lexicon
	gen     []dataset.Entry
	d       *db.DB
	cfg     *db.LexConfig
	sub     *db.DB
	subCfg  *db.LexConfig
	queries []core.Text
	dir     string
}

var (
	fixOnce sync.Once
	fix     *benchFixture
	fixErr  error
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		fixErr = func() error {
			f := &benchFixture{}
			var err error
			f.op, err = core.New(core.Options{})
			if err != nil {
				return err
			}
			f.lex, err = dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
			if err != nil {
				return err
			}
			f.gen = dataset.Generate(f.lex, benchRows)
			f.dir, err = os.MkdirTemp("", "lexequal-bench-")
			if err != nil {
				return err
			}
			texts := make([]core.Text, len(f.gen))
			for i, e := range f.gen {
				texts[i] = e.Text
			}
			f.d, f.cfg, err = loadNames(f.dir+"/full", f.op, texts)
			if err != nil {
				return err
			}
			f.sub, f.subCfg, err = loadNames(f.dir+"/sub", f.op, texts[:benchJoinRows])
			if err != nil {
				return err
			}
			for i := 0; i < len(texts); i += len(texts) / 16 {
				f.queries = append(f.queries, texts[i])
			}
			fix = f
			return nil
		}()
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// loadNames bulk-loads texts into a names table at dir through
// db.BuildAtomic — a WAL-backed load is one transaction whose dirty
// pages must fit the buffer pool — and reopens it WAL-backed.
func loadNames(dir string, op *core.Operator, texts []core.Text) (*db.DB, *db.LexConfig, error) {
	err := db.BuildAtomic(dir, db.Options{}, func(d *db.DB) error {
		_, err := db.CreateNameTable(d, "names", op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	d, err := db.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := db.ResolveLexConfig(d, "names", op)
	if err != nil {
		return nil, nil, errors.Join(err, d.Close())
	}
	return d, cfg, nil
}

func (f *benchFixture) query(i int) core.Text { return f.queries[i%len(f.queries)] }

func collectScan(b *testing.B, mk func(q core.Text) db.Node, f *benchFixture) {
	b.Helper()
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := db.Collect(mk(f.query(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += len(rows)
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches/query")
}

// --- Figure 10: tagged lexicon construction and distributions ---

func BenchmarkFig10_LexiconBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
		if err != nil {
			b.Fatal(err)
		}
		op, _ := core.New(core.Options{})
		lh, ph, err := dataset.Distributions(lex.Entries, op)
		if err != nil {
			b.Fatal(err)
		}
		if lh.Mean() < 4 || ph.Mean() < 4 {
			b.Fatal("implausible distributions")
		}
	}
}

// --- Figure 11: one recall/precision sweep (all-pairs per ICSC) ---

func BenchmarkFig11_QualitySweep(b *testing.B) {
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceGeneric)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := metrics.NewEvaluator(lex, nil)
	if err != nil {
		b.Fatal(err)
	}
	thresholds := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ev.SweepClustered(phoneme.DefaultClusters(), 0.25, core.DefaultWeakIndel, thresholds)
		if err != nil {
			b.Fatal(err)
		}
		if pts[len(pts)-1].Recall == 0 {
			b.Fatal("sweep produced nothing")
		}
	}
}

// --- Figure 12: the full precision-recall grid and best point ---

func BenchmarkFig12_PRCurves(b *testing.B) {
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceGeneric)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := metrics.NewEvaluator(lex, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := ev.Grid(phoneme.DefaultClusters(), core.DefaultWeakIndel,
			[]float64{0, 0.5, 1}, []float64{0.2, 0.3, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		best := metrics.Best(grid)
		if best.Recall == 0 && best.Precision == 0 {
			b.Fatal("empty grid")
		}
	}
}

// --- Figure 13: generating the synthetic performance dataset ---

func BenchmarkFig13_GeneratedSet(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := dataset.Generate(f.lex, benchRows)
		if len(gen) != benchRows {
			b.Fatalf("generated %d", len(gen))
		}
	}
}

// --- Table 1: native exact matching vs the naive LexEQUAL UDF ---

func BenchmarkTable1_ExactScan(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	collectScan(b, func(q core.Text) db.Node {
		return &db.Filter{
			Child: db.NewSeqScan(f.cfg.Table),
			Pred: &db.Binary{Op: "=",
				L: &db.ColRef{Idx: f.cfg.NameCol},
				R: &db.Const{V: db.NStr(q.Value, q.Lang)}},
		}
	}, f)
}

func BenchmarkTable1_UDFScan(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	collectScan(b, func(q core.Text) db.Node {
		return db.NewLexScanNaive(f.cfg, q, benchThr, nil)
	}, f)
}

func BenchmarkTable1_ExactJoin(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Collect(&db.HashJoin{
			Left:     db.NewSeqScan(f.subCfg.Table),
			Right:    db.NewSeqScan(f.subCfg.Table),
			LeftCol:  f.subCfg.NameCol,
			RightCol: f.subCfg.NameCol,
		})
		if err != nil || len(rows) == 0 {
			b.Fatalf("exact join: %d rows, %v", len(rows), err)
		}
	}
}

func BenchmarkTable1_UDFJoin(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Collect(db.NewLexJoin(f.subCfg, f.subCfg, benchThr, false, core.Naive))
		if err != nil || len(rows) == 0 {
			b.Fatalf("udf join: %d rows, %v", len(rows), err)
		}
	}
}

// --- Table 2: q-gram filtered scan and join ---

func BenchmarkTable2_QGramScan(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	collectScan(b, func(q core.Text) db.Node {
		return db.NewLexScanQGram(f.cfg, q, benchThr, nil)
	}, f)
}

func BenchmarkTable2_QGramJoin(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Collect(db.NewLexJoin(f.subCfg, f.subCfg, benchThr, false, core.QGram))
		if err != nil || len(rows) == 0 {
			b.Fatalf("qgram join: %d rows, %v", len(rows), err)
		}
	}
}

// --- Table 3: phonetic-index scan and join ---

func BenchmarkTable3_IndexedScan(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	collectScan(b, func(q core.Text) db.Node {
		return db.NewLexScanIndexed(f.cfg, q, benchThr, nil)
	}, f)
}

func BenchmarkTable3_IndexedJoin(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Collect(db.NewLexJoin(f.subCfg, f.subCfg, benchThr, false, core.Indexed))
		if err != nil || len(rows) == 0 {
			b.Fatalf("indexed join: %d rows, %v", len(rows), err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// Banded, threshold-bounded DP vs the full matrix of Figure 8.
func BenchmarkAblation_FullDP(b *testing.B) {
	cm, _ := editdist.NewClusteredWeak(phoneme.DefaultClusters(), 0.25, 0.5)
	a := phoneme.MustParse("dʒəʋaːɦərlaːlneːru")
	c := phoneme.MustParse("dʒawɑhɑrlɑlnɛru")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		editdist.Distance(a, c, cm)
	}
}

func BenchmarkAblation_BandedDP(b *testing.B) {
	cm, _ := editdist.NewClusteredWeak(phoneme.DefaultClusters(), 0.25, 0.5)
	a := phoneme.MustParse("dʒəʋaːɦərlaːlneːru")
	c := phoneme.MustParse("dʒawɑhɑrlɑlnɛru")
	bound := benchThr * float64(len(c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		editdist.DistanceBounded(a, c, cm, bound)
	}
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
	f := getFixture(b)
	texts := make([]core.Text, 4000)
	for i := range texts {
		texts[i] = f.gen[i].Text
	}
	for _, q := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			corpus, err := f.op.NewCorpusQ(texts, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.Select(f.query(i), benchThr, nil, core.QGram); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Cluster granularity: candidate-set size of the phonetic index.
func BenchmarkAblation_Clusters(b *testing.B) {
	f := getFixture(b)
	texts := make([]core.Text, 4000)
	for i := range texts {
		texts[i] = f.gen[i].Text
	}
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
				_, st, err := corpus.Select(f.query(i), benchThr, nil, core.Indexed)
				if err != nil {
					b.Fatal(err)
				}
				candidates += st.Candidates
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/query")
		})
	}
}

// Join strategy: hash join vs nested loop for the exact equi-join.
func BenchmarkAblation_JoinStrategy(b *testing.B) {
	f := getFixture(b)
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Collect(&db.HashJoin{
				Left:     db.NewSeqScan(f.subCfg.Table),
				Right:    db.NewSeqScan(f.subCfg.Table),
				LeftCol:  f.subCfg.IDCol,
				RightCol: f.subCfg.IDCol,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nestedloop", func(b *testing.B) {
		pred := &db.Binary{Op: "=",
			L: &db.ColRef{Idx: f.subCfg.IDCol},
			R: &db.ColRef{Idx: len(f.subCfg.Table.Columns) + f.subCfg.IDCol}}
		for i := 0; i < b.N; i++ {
			if _, err := db.Collect(&db.NestedLoopJoin{
				Left:  db.NewSeqScan(f.subCfg.Table),
				Right: db.NewSeqScan(f.subCfg.Table),
				Pred:  pred,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Metric index (BK-tree, the paper's future-work item) vs the naive
// scan: same exact results, sublinear distance evaluations.
func BenchmarkAblation_MetricIndex(b *testing.B) {
	f := getFixture(b)
	texts := make([]core.Text, 4000)
	for i := range texts {
		texts[i] = f.gen[i].Text
	}
	corpus, err := f.op.NewCorpus(texts)
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
			_, st, err := corpus.SelectMetric(mi, f.query(i), 0.1, nil)
			if err != nil {
				b.Fatal(err)
			}
			evals += st.Candidates
		}
		b.ReportMetric(float64(evals)/float64(b.N), "distevals/query")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := corpus.Select(f.query(i), 0.1, nil, core.Naive); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// End-to-end SQL overhead: the Figure 3 query through the parser and
// planner vs the direct physical plan.
func BenchmarkSQLSelectLexEqual(b *testing.B) {
	f := getFixture(b)
	d, err := OpenWith(b.TempDir(), NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	texts := make([]Text, 2000)
	for i := range texts {
		texts[i] = f.gen[i].Text
	}
	if err := d.LoadNames("names", texts, NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		b.Fatal(err)
	}
	d.MustExec("SET lexequal_strategy = qgram")
	q := fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL '%s' THRESHOLD 0.25", texts[0].Value)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}
