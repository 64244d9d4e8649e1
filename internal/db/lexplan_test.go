package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/soundex"
	"lexequal/internal/ttp"
)

func lexFixture(t *testing.T) (*DB, *LexConfig, *core.Operator) {
	t.Helper()
	d := openDB(t)
	op := core.MustNew(core.Options{})
	texts := []core.Text{
		{Value: "Descartes", Lang: script.English}, // 0
		{Value: "நேரு", Lang: script.Tamil},        // 1
		{Value: "Σαρρη", Lang: script.Greek},       // 2
		{Value: "Nero", Lang: script.English},      // 3
		{Value: "Nehru", Lang: script.English},     // 4
		{Value: "नेहरु", Lang: script.Hindi},       // 5
		{Value: "Gandhi", Lang: script.English},    // 6
		{Value: "गांधी", Lang: script.Hindi},       // 7
		{Value: "காந்தி", Lang: script.Tamil},      // 8
		{Value: "Kathy", Lang: script.English},     // 9
		{Value: "Cathy", Lang: script.English},     // 10
		{Value: "بهنسي", Lang: script.Arabic},      // 11: NORESOURCE
	}
	cfg, err := CreateNameTable(d, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg, op
}

func ids(rows []Row, idCol int) []int64 {
	out := make([]int64, 0, len(rows))
	for _, r := range rows {
		out = append(out, r[idCol].I)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestLoaderLayout(t *testing.T) {
	d, cfg, _ := lexFixture(t)
	if cfg.CoverIndex == nil || cfg.IDIndex == nil || cfg.GroupIndex == nil {
		t.Fatal("loader did not build the indexes")
	}
	if got := d.Tables(); !reflect.DeepEqual(got, []string{"names"}) {
		t.Errorf("tables = %v, want the base table only", got)
	}
	if def := cfg.CoverIndex.Def; def.Table != "names" || def.Column != "pname" || def.Kind != IndexGram || def.Clusters != "default" {
		t.Errorf("gram index def = %+v", def)
	}
	if cfg.CoverIndex.Tree.Count() == 0 {
		t.Error("gram index empty")
	}
	tbl, _ := d.Table("names")
	if tbl.Count() != 12 {
		t.Errorf("row count = %d", tbl.Count())
	}
	// NORESOURCE row has NULL pname and groupid.
	rows, _ := Collect(NewSeqScan(tbl))
	last := rows[11]
	if !last[cfg.PhonCol].IsNull() || !last[cfg.GroupCol].IsNull() {
		t.Errorf("NORESOURCE row has phonemes: %v", last)
	}
	// Other rows carry IPA that parses.
	if rows[4][cfg.PhonCol].S == "" {
		t.Error("English row lacks pname")
	}
}

func TestLexScanNaive(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	q := core.Text{Value: "Nehru", Lang: script.English}
	rows, err := Collect(NewLexScanNaive(cfg, q, 0.30, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := ids(rows, cfg.IDCol)
	for _, want := range []int64{1, 4, 5} {
		if !containsID(got, want) {
			t.Errorf("naive scan missing id %d (got %v)", want, got)
		}
	}
}

func containsID(xs []int64, x int64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestLexScanStrategiesAgree(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	queries := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "Gandhi", Lang: script.English},
		{Value: "Cathy", Lang: script.English},
		{Value: "Σαρρη", Lang: script.Greek},
	}
	for _, q := range queries {
		for _, thr := range []float64{0.1, 0.25, 0.3, 0.4} {
			naive, err := Collect(NewLexScanNaive(cfg, q, thr, nil))
			if err != nil {
				t.Fatal(err)
			}
			qg, err := Collect(NewLexScanQGram(cfg, q, thr, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(naive, cfg.IDCol), ids(qg, cfg.IDCol)) {
				t.Errorf("%v @%v: naive %v != qgram %v", q, thr, ids(naive, cfg.IDCol), ids(qg, cfg.IDCol))
			}
			idx, err := Collect(NewLexScanIndexed(cfg, q, thr, nil))
			if err != nil {
				t.Fatal(err)
			}
			naiveIDs := ids(naive, cfg.IDCol)
			for _, id := range ids(idx, cfg.IDCol) {
				if !containsID(naiveIDs, id) {
					t.Errorf("%v @%v: indexed invented id %d", q, thr, id)
				}
			}
		}
	}
}

func TestLexScanLanguageFilter(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	q := core.Text{Value: "Nehru", Lang: script.English}
	langs := core.NewLangSet(script.Hindi, script.Tamil)
	for name, node := range map[string]Node{
		"naive": NewLexScanNaive(cfg, q, 0.3, langs),
		"qgram": NewLexScanQGram(cfg, q, 0.3, langs),
		"index": NewLexScanIndexed(cfg, q, 0.3, langs),
	} {
		rows, err := Collect(node)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if l := r[cfg.NameCol].Lang; l != script.Hindi && l != script.Tamil {
				t.Errorf("%s leaked language %v", name, l)
			}
		}
	}
}

func TestLexScanErrsWithoutStructures(t *testing.T) {
	d := openDB(t)
	op := core.MustNew(core.Options{})
	cfg, err := CreateNameTable(d, "bare", op, []core.Text{
		{Value: "Nehru", Lang: script.English},
	}, NameTableSpec{}) // no gram index, no indexes
	if err != nil {
		t.Fatal(err)
	}
	q := core.Text{Value: "Nehru", Lang: script.English}
	if _, err := Collect(NewLexScanQGram(cfg, q, 0.3, nil)); err == nil {
		t.Error("qgram scan without a gram index succeeded")
	}
	// A gram index built under one cluster set does not resolve under
	// another: its postings would dismiss rows the other set matches.
	if _, err := CreateNameTable(d, "grams", op, []core.Text{q}, NameTableSpec{WithAux: true}); err != nil {
		t.Fatal(err)
	}
	coarse := core.MustNew(core.Options{Clusters: phoneme.CoarseClusters()})
	if other, err := ResolveLexConfig(d, "grams", coarse); err != nil || other.CoverIndex != nil {
		t.Errorf("under coarse clusters: gram index %v, err %v", other.CoverIndex, err)
	}
	// The index names its cluster set, so a set no name resolves to
	// cannot have one.
	custom := core.MustNew(core.Options{Clusters: phoneme.MustFromGroups("default", nil)})
	if _, err := CreateNameTable(d, "custom", custom, []core.Text{q}, NameTableSpec{WithAux: true}); err == nil {
		t.Error("a gram index was built under a cluster set its name does not resolve to")
	}
	if _, err := Collect(NewLexScanIndexed(cfg, q, 0.3, nil)); err == nil {
		t.Error("indexed scan without index succeeded")
	}
	// Naive still works.
	rows, err := Collect(NewLexScanNaive(cfg, q, 0.3, nil))
	if err != nil || len(rows) != 1 {
		t.Errorf("naive scan on bare table = %v, %v", rows, err)
	}
}

// mixedLexFixture loads a seeded sample of the multiscript evaluation
// lexicon (English, Hindi, Tamil; two morsels' worth of rows). Names
// whose IPA text does not survive the store's render/parse round trip
// are left out, so the db plans (which read stored IPA) and an in-memory
// core.Corpus (which transforms the names) see identical phonemes.
func mixedLexFixture(t *testing.T) (*LexConfig, []core.Text) {
	t.Helper()
	op := core.MustNew(core.Options{})
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	all := lex.Texts()
	rng := rand.New(rand.NewSource(22))
	var texts []core.Text
	for _, i := range rng.Perm(len(all)) {
		p, err := op.Transform(all[i].Value, all[i].Lang)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(phoneme.ParseLenient(p.IPA()), p) {
			texts = append(texts, all[i])
		}
		if len(texts) == 2*core.MorselSize-100 {
			break
		}
	}
	cfg, err := CreateNameTable(openDB(t), "mixed", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, texts
}

// assertPlansMatchCore is the differential oracle between the storage
// plans and the in-memory engine they feed: under every strategy,
// kernel and width, NewLexScan* returns exactly the ids Corpus.Select
// returns (for Indexed: core's indexed result, false dismissals
// included) and NewLexJoin exactly core.Join's pairs, in its order.
func assertPlansMatchCore(t *testing.T, cfg *LexConfig, texts, queries []core.Text, thr float64, diffLang bool) {
	t.Helper()
	corpus, err := cfg.Op.NewCorpusQ(texts, cfg.Q)
	if err != nil {
		t.Fatal(err)
	}
	scans := map[core.Strategy]func(*LexConfig, core.Text, float64, core.LangSet) Node{
		core.Naive: NewLexScanNaive, core.QGram: NewLexScanQGram, core.Indexed: NewLexScanIndexed,
	}
	w := len(cfg.Table.Columns)
	for _, strat := range []core.Strategy{core.Naive, core.QGram, core.Indexed} {
		for _, kern := range []core.Kernel{core.KernelScalar, core.KernelBitvec} {
			for _, workers := range []int{1, 4} {
				run := *cfg
				run.Kernel, run.Workers = kern, workers
				opts := []core.ExecOption{core.WithKernel(kern), core.Parallel(workers)}
				name := fmt.Sprintf("%v/%v/workers=%d", strat, kern, workers)
				for _, q := range queries {
					rows, err := Collect(scans[strat](&run, q, thr, nil))
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := corpus.Select(q, thr, nil, strat, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := []int{}
					for _, id := range ids(rows, cfg.IDCol) {
						got = append(got, int(id))
					}
					if !reflect.DeepEqual(got, append([]int{}, want...)) {
						t.Errorf("%s scan %v: plan ids %v != core %v", name, q, got, want)
					}
				}
				rows, err := Collect(NewLexJoin(&run, &run, thr, diffLang, strat))
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := core.Join(corpus, corpus, thr, diffLang, strat, opts...)
				if err != nil {
					t.Fatal(err)
				}
				var got []core.Pair
				for _, r := range rows {
					got = append(got, core.Pair{Left: int(r[cfg.IDCol].I), Right: int(r[w+cfg.IDCol].I)})
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s join: plan returns %d pairs, core %d (or in another order)", name, len(got), len(want))
				}
				if len(want) < len(queries) {
					t.Errorf("%s join: only %d pairs, the fixture is too sparse to tell plans apart", name, len(want))
				}
			}
		}
	}
}

func TestLexJoinStrategies(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	type pair struct{ l, r int64 }
	collect := func(strat core.Strategy) map[pair]bool {
		rows, err := Collect(NewLexJoin(cfg, cfg, 0.30, true, strat))
		if err != nil {
			t.Fatal(err)
		}
		w := len(cfg.Table.Columns)
		out := map[pair]bool{}
		for _, r := range rows {
			out[pair{r[cfg.IDCol].I, r[w+cfg.IDCol].I}] = true
		}
		return out
	}
	naive := collect(core.Naive)
	// Cross-language Nehru and Gandhi pairs must be present.
	for _, want := range []pair{{1, 4}, {4, 1}, {1, 5}, {4, 5}, {6, 7}, {7, 8}} {
		if !naive[want] {
			t.Errorf("naive join missing %v", want)
		}
	}
	// Same-language pairs excluded.
	if naive[pair{9, 10}] {
		t.Error("join kept same-language Kathy/Cathy despite diffLang")
	}
	qg := collect(core.QGram)
	if !reflect.DeepEqual(naive, qg) {
		t.Errorf("qgram join differs from naive:\nnaive %v\nqgram %v", naive, qg)
	}
	idx := collect(core.Indexed)
	for p := range idx {
		if !naive[p] {
			t.Errorf("indexed join invented %v", p)
		}
	}
	if len(idx) == 0 {
		t.Error("indexed join found nothing")
	}

	// A row committed after the load has no entries in the gram index,
	// which covers the rows of its build; the q-gram join does not read
	// it, so it must still equal the naive join. (The
	// row is glottal-free on purpose: the count filter has power for it,
	// so no zero-gram sweep can stumble on it.)
	p, err := cfg.Op.Transform("गांधी", script.Hindi)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := cfg.Table.db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	gid := soundex.NewEncoder(cfg.Op.Clusters()).Encode(p)
	if _, err := cfg.Table.InsertTx(tx, Row{Int(12), NStr("गांधी", script.Hindi), Str(p.IPA()), Int(int64(gid))}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	naive = collect(core.Naive)
	if !naive[pair{6, 12}] || !naive[pair{12, 8}] {
		t.Fatalf("naive join does not pair the inserted row with Gandhi: %v", naive)
	}
	if qg := collect(core.QGram); !reflect.DeepEqual(naive, qg) {
		t.Errorf("after an insert the qgram join differs from naive:\nnaive %v\nqgram %v", naive, qg)
	}

	// The plans against the in-memory engine, on a lexicon wide enough
	// to span morsels.
	mixed, texts := mixedLexFixture(t)
	rng := rand.New(rand.NewSource(5))
	var queries []core.Text
	for _, i := range rng.Perm(len(texts))[:8] {
		queries = append(queries, texts[i])
	}
	assertPlansMatchCore(t, mixed, texts, queries, 0.25, true)
}

func TestLexJoinWithoutDiffLang(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	rows, err := Collect(NewLexJoin(cfg, cfg, 0.0, false, core.Indexed))
	if err != nil {
		t.Fatal(err)
	}
	w := len(cfg.Table.Columns)
	found := false
	for _, r := range rows {
		if r[cfg.IDCol].I == 9 && r[w+cfg.IDCol].I == 10 {
			found = true
		}
	}
	if !found {
		t.Error("indexed join missed identical-phoneme Kathy/Cathy")
	}
}

func TestLexEqualUDF(t *testing.T) {
	_, cfg, op := lexFixture(t)
	r := NewFuncRegistry()
	RegisterLexEqualUDF(r, op)
	fn, ok := r.Lookup("LEXEQUAL")
	if !ok {
		t.Fatal("lexequal UDF not registered")
	}
	v, err := fn([]Value{NStr("Nehru", script.English), NStr("नेहरु", script.Hindi), Float(0.3)})
	if err != nil || v.I != 1 {
		t.Errorf("lexequal UDF = %v, %v", v, err)
	}
	v, err = fn([]Value{NStr("Nehru", script.English), NStr("Gandhi", script.English), Float(0.3)})
	if err != nil || v.I != 0 {
		t.Errorf("lexequal non-match = %v, %v", v, err)
	}
	// NORESOURCE yields NULL.
	v, err = fn([]Value{NStr("Nehru", script.English), NStr("بهنسي", script.Arabic), Float(0.3)})
	if err != nil || !v.IsNull() {
		t.Errorf("lexequal NORESOURCE = %v, %v", v, err)
	}
	// Bad arguments.
	if _, err := fn([]Value{Str("x"), Str("y"), Float(0.3)}); err == nil {
		t.Error("non-NSTRING arguments accepted")
	}
	if _, err := fn([]Value{NStr("x", script.English)}); err == nil {
		t.Error("wrong arity accepted")
	}
	// soundex and phonemes UDFs.
	sdx, _ := r.Lookup("soundex")
	v, err = sdx([]Value{Str("Nehru")})
	if err != nil || v.S != "N600" {
		t.Errorf("soundex UDF = %v, %v", v, err)
	}
	ph, _ := r.Lookup("phonemes")
	v, err = ph([]Value{NStr("Nehru", script.English)})
	if err != nil || v.S != "neːru" {
		t.Errorf("phonemes UDF = %v, %v", v, err)
	}
	// UDF in a query plan: count matches via Filter.
	call := &Call{Name: "lexequal", Fn: fn, Args: []Expr{
		&ColRef{Idx: cfg.NameCol},
		&Const{V: NStr("Nehru", script.English)},
		&Const{V: Float(0.3)},
	}}
	rows, err := Collect(&Filter{Child: NewSeqScan(cfg.Table), Pred: call})
	if err != nil {
		t.Fatal(err)
	}
	got := ids(rows, cfg.IDCol)
	for _, want := range []int64{1, 4, 5} {
		if !containsID(got, want) {
			t.Errorf("UDF filter missing id %d (got %v)", want, got)
		}
	}
}

// weakLexFixture loads the glottal-heavy lexicon whose cheap
// projection-shifting edits (/ha/~/ka/) regressed the unslacked q-gram
// strategy budget; see core's weakCatalog twin.
func weakLexFixture(t *testing.T) (*LexConfig, []core.Text) {
	t.Helper()
	d := openDB(t)
	op := core.MustNew(core.Options{})
	var texts []core.Text
	for _, w := range []string{
		"Ha", "Ka", "Hahn", "Kahn", "Khan", "Han", "Aha",
		"Hoho", "Koko", "Oh", "Nehru", "Neru", "Kathy", "Cathy",
	} {
		texts = append(texts, core.Text{Value: w, Lang: script.English})
	}
	cfg, err := CreateNameTable(d, "weak", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, texts
}

// TestLexScanQGramWeakLexicon is the db-plan half of the budget-slack
// regression: the q-gram scan and join must agree exactly with naive on
// the weak-phoneme lexicon (the scan plan budgets per pair at collect
// time, the join plan per probe posting).
func TestLexScanQGramWeakLexicon(t *testing.T) {
	cfg, texts := weakLexFixture(t)
	for _, w := range []string{"Ha", "Ka", "Hahn", "Khan", "Aha", "Oh", "Koko"} {
		q := core.Text{Value: w, Lang: script.English}
		for _, thr := range []float64{0.1, 0.3, 0.5} {
			naive, err := Collect(NewLexScanNaive(cfg, q, thr, nil))
			if err != nil {
				t.Fatal(err)
			}
			qg, err := Collect(NewLexScanQGram(cfg, q, thr, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(naive, cfg.IDCol), ids(qg, cfg.IDCol)) {
				t.Errorf("%v @%v: naive %v != qgram %v", q, thr, ids(naive, cfg.IDCol), ids(qg, cfg.IDCol))
			}
		}
	}
	// /ka/ must find /ha/ (id 0): one intra-cluster substitution.
	q := core.Text{Value: "Ka", Lang: script.English}
	rows, err := Collect(NewLexScanQGram(cfg, q, 0.30, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !containsID(ids(rows, cfg.IDCol), 0) {
		t.Error("qgram scan falsely dismissed /ha/ for query /ka/")
	}
	// Join agreement on the same lexicon.
	type pair struct{ l, r int64 }
	collect := func(strat core.Strategy) map[pair]bool {
		rows, err := Collect(NewLexJoin(cfg, cfg, 0.30, false, strat))
		if err != nil {
			t.Fatal(err)
		}
		w := len(cfg.Table.Columns)
		out := map[pair]bool{}
		for _, r := range rows {
			out[pair{r[cfg.IDCol].I, r[w+cfg.IDCol].I}] = true
		}
		return out
	}
	naive := collect(core.Naive)
	qg := collect(core.QGram)
	if !reflect.DeepEqual(naive, qg) {
		t.Errorf("weak-lexicon join: naive %v != qgram %v", naive, qg)
	}
	if !naive[pair{0, 1}] {
		t.Error("naive join missing the /ha/~/ka/ pair itself")
	}
	// Every plan equals the in-memory engine on the weak lexicon too,
	// every name of it as a query.
	assertPlansMatchCore(t, cfg, texts, texts, 0.30, false)
}

// TestJoinKernelCrossModel asserts the EXPLAIN-facing contract: a join
// whose sides carry different cost models is forced onto the scalar
// kernel with a reason EXPLAIN appends, and still returns the same rows
// (verification always runs under the left model).
func TestJoinKernelCrossModel(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	cfg.Kernel = core.KernelAuto
	if k, reason := JoinKernel(cfg, cfg); k != cfg.Kernel || reason != "" {
		t.Errorf("same-model JoinKernel = %v %q", k, reason)
	}
	other := *cfg
	other.Op = core.MustNew(core.Options{ICSC: 0.5, ICSCSet: true})
	k, reason := JoinKernel(cfg, &other)
	if k != core.KernelScalar {
		t.Errorf("cross-model JoinKernel = %v, want scalar", k)
	}
	if reason != "cross-model join" {
		t.Errorf("cross-model reason = %q", reason)
	}
	// The downgrade changes the execution path, never the rows: the
	// cross-model join verifies under the left model either way.
	same, err := Collect(NewLexJoin(cfg, cfg, 0.30, true, core.QGram))
	if err != nil {
		t.Fatal(err)
	}
	cross, err := Collect(NewLexJoin(cfg, &other, 0.30, true, core.QGram))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, cross) {
		t.Errorf("cross-model join rows differ from same-model join")
	}
}
