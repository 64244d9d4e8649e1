package db

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/store"
	"lexequal/internal/ttp"
)

// generatedTexts returns the first n generated names whose IPA text
// survives the store's render/parse round trip (see mixedLexFixture).
func generatedTexts(tb testing.TB, op *core.Operator, n int) []core.Text {
	tb.Helper()
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		tb.Fatal(err)
	}
	var texts []core.Text
	for _, e := range dataset.Generate(lex, n+n/50) {
		p, err := op.Transform(e.Text.Value, e.Text.Lang)
		if err != nil {
			tb.Fatal(err)
		}
		if phoneme.ParseLenient(p.IPA()).Equal(p) && len(texts) < n {
			texts = append(texts, e.Text)
		}
	}
	if len(texts) < n {
		tb.Fatalf("the lexicon yields only %d of %d names", len(texts), n)
	}
	return texts
}

// coverEntries reads the whole covering index.
func coverEntries(t *testing.T, ix *Index) []coverEntry {
	t.Helper()
	var entries []coverEntry
	it := ix.Tree.Seek(0)
	for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
		entries = append(entries, coverEntry{k, v})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// rebuildCover replaces the covering index's tree, in place, by one that
// holds entries, inserted in the order given.
func rebuildCover(t *testing.T, d *DB, ix *Index, entries []coverEntry) {
	t.Helper()
	if err := ix.Tree.Close(); err != nil {
		t.Fatal(err)
	}
	path := d.indexPath(ix.Def.Name)
	if err := d.fs.Remove(path); err != nil {
		t.Fatal(err)
	}
	bt, err := store.OpenBTreeFS(path, d.cachePages, d.fs)
	if err != nil {
		t.Fatal(err)
	}
	ix.Tree = bt
	for _, e := range entries {
		if err := bt.Insert(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
}

func planIDs(t *testing.T, node Node, idCol int) []int64 {
	t.Helper()
	rows, err := Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	return ids(rows, idCol)
}

func TestCoverValueRoundTripAndRange(t *testing.T) {
	v, err := CoverValue(1<<coverIDBits-1, 254, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if id, pos, plen, weak := UnpackCover(v); id != 1<<coverIDBits-1 || pos != 254 || plen != 0 || weak != 17 {
		t.Errorf("round trip = (%d, %d, %d, %d)", id, pos, plen, weak)
	}
	// Out of range saturates to unknown, never wraps into a valid value.
	v, err = CoverValue(7, 255, 300, 1<<16+3)
	if err != nil {
		t.Fatal(err)
	}
	if id, pos, plen, weak := UnpackCover(v); id != 7 || pos != core.SummaryUnknown || plen != core.SummaryUnknown || weak != core.SummaryUnknown {
		t.Errorf("saturated posting unpacks to (%d, %d, %d, %d)", id, pos, plen, weak)
	}
	for _, id := range []int64{-1, 1 << coverIDBits, 1 << 48} {
		if _, err := CoverValue(id, 1, 1, 1); err == nil {
			t.Errorf("id %d packed without an error", id)
		}
	}
	if weakKey(3) >= weakKey(254) || weakKey(254) >= weakKey(255) || weakKey(255) != weakKey(1000) || weakKey(1)>>63 != 1 || GramHash("abc")>>63 != 0 {
		t.Error("weak keys are not ordered by weak count above every gram hash, with unknown last")
	}
}

// TestCoverIndexRefusesWideID: a row whose id the posting cannot hold
// fails the gram index build instead of aliasing another row, and the
// failed build leaves no index behind.
func TestCoverIndexRefusesWideID(t *testing.T) {
	d := openDB(t)
	op := core.MustNew(core.Options{})
	texts := []core.Text{{Value: "Nehru", Lang: script.English}}
	cfg, err := CreateNameTable(d, "names", op, texts, NameTableSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Table.Insert(Row{Int(1 << coverIDBits), NStr("Nehru", script.English), Str("neːru"), Null()}); err != nil {
		t.Fatal(err)
	}
	def := IndexDef{Name: CoverIndexName("names"), Table: "names", Column: "pname", Kind: IndexGram, Clusters: op.Clusters().Name()}
	tx, err := d.autoBegin()
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.createIndexTx(tx, def)
	if err := d.autoEnd(tx, err); err == nil {
		t.Error("a gram of an id outside the posting layout was indexed")
	}
	if _, ok := d.Index(def.Name); ok {
		t.Error("the failed build left its index in the catalog")
	}
}

// TestLongNamesPostedAsUnknown: a name with more projected phonemes or
// glottals than a posting field holds is posted with the unknown
// sentinel — fetched and decided afterwards — so the q-gram plan finds it
// exactly when the naive plan does.
func TestLongNamesPostedAsUnknown(t *testing.T) {
	d := openDB(t)
	op := core.MustNew(core.Options{})
	long := func(syl string, n int) core.Text {
		return core.Text{Value: strings.Repeat(syl, n), Lang: script.English}
	}
	texts := []core.Text{
		long("ha", 260),                        // plen and weak past the sentinel
		long("na", 140),                        // plen past it, no glottal
		long("ha", 259),                        // one syllable from row 0
		{Value: "Ha", Lang: script.English},    // 3
		{Value: "Nana", Lang: script.English},  // 4
		{Value: "Nehru", Lang: script.English}, // 5
		long("na", 139),                        // 6
	}
	cfg, err := CreateNameTable(d, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := op.Transform(texts[0].Value, texts[0].Lang)
	if err != nil {
		t.Fatal(err)
	}
	if plen, weak := core.Summary(p); plen <= 254 || weak <= 254 {
		t.Fatalf("row 0 has plen %d, weak %d: the fixture does not reach the sentinel", plen, weak)
	}
	unknown := 0
	for _, e := range coverEntries(t, cfg.CoverIndex) {
		if _, _, plen, weak := UnpackCover(e.val); plen == core.SummaryUnknown || weak == core.SummaryUnknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Fatal("no posting carries the unknown sentinel")
	}
	for qi, q := range append(texts, long("ha", 261), long("na", 141), long("nah", 100)) {
		for _, thr := range []float64{0.05, 0.25, 0.5} {
			naive := planIDs(t, NewLexScanNaive(cfg, q, thr, nil), cfg.IDCol)
			qg := planIDs(t, NewLexScanQGram(cfg, q, thr, nil), cfg.IDCol)
			if !reflect.DeepEqual(naive, qg) {
				t.Errorf("query %d @%v: naive %v != qgram %v", qi, thr, naive, qg)
			}
			if qi < len(texts) && !containsID(qg, int64(qi)) {
				t.Errorf("query %d @%v: the q-gram plan misses the query's own row (%v)", qi, thr, qg)
			}
		}
	}
	if issues := d.Check(); len(issues) != 0 {
		t.Errorf("check on saturated postings: %d issues, first: %v", len(issues), issues[0])
	}
}

// sweepFixture is the glottal-heavy lexicon of weakLexFixture, widened
// with names of two and three glottals, followed by a block of
// NORESOURCE rows: they have no phonemes, so no plan ever fetches them
// and only a heap scan touches the pages they fill. It returns the whole
// table's texts and, of those, the names.
func sweepFixture(t *testing.T) (cfg *LexConfig, texts, names []core.Text) {
	t.Helper()
	op := core.MustNew(core.Options{})
	for _, w := range []string{
		"Ha", "Ka", "Hahn", "Kahn", "Khan", "Han", "Aha", "Hoho", "Koko", "Oh", "Nehru", "Neru", "Kathy", "Cathy",
		"Hahaha", "Kakaka", "Hohoho", "Gandhi", "Gandi", "Mahatma", "Matma", "Brahmaputra", "Bramaputra", "Ahohi", "Aoi",
	} {
		texts = append(texts, core.Text{Value: w, Lang: script.English})
	}
	names = texts
	for i := 0; i < 4000; i++ {
		texts = append(texts, core.Text{Value: fmt.Sprintf("بهنسي%d", i), Lang: script.Arabic})
	}
	cfg, err := CreateNameTable(openDB(t), "sweep", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, texts, names
}

// TestQGramResidualSweepRegimes drives the plan through the four regimes
// of its residual sweep — none, the weak list from weak count 1, from 2
// or more, and the heap when even rows without a weak phoneme can match
// on no shared gram — and checks, in each, the answer against the naive
// plan and that the heap is scanned in the last one only.
func TestQGramResidualSweepRegimes(t *testing.T) {
	cfg, texts, names := sweepFixture(t)
	heap := cfg.Table.Heap.Pager()
	pages := uint64(heap.NumPages()) - 1 // but the meta page
	accesses := func() uint64 {
		_, _, hits, misses := heap.Stats()
		return hits + misses
	}
	regimes := map[string]int{}
	for _, q := range names {
		for _, thr := range []float64{0.05, 0.1, 0.15, 0.25, 0.3, 0.5} {
			qp, err := cfg.Op.Transform(q.Value, q.Lang)
			if err != nil {
				t.Fatal(err)
			}
			qf := cfg.Op.NewQGramFilter(qp, thr, cfg.Q)
			wmin, residual := qf.SweepFrom()
			regime := "none"
			switch {
			case residual && wmin == 0:
				regime = "heap"
			case residual && wmin == 1:
				regime = "weak>=1"
			case residual:
				regime = "weak>=2"
			}
			regimes[regime]++
			naive := planIDs(t, NewLexScanNaive(cfg, q, thr, nil), cfg.IDCol)
			before := accesses()
			qg := planIDs(t, NewLexScanQGram(cfg, q, thr, nil), cfg.IDCol)
			touched := accesses() - before
			if !reflect.DeepEqual(naive, qg) {
				t.Errorf("%v @%v (%s): naive %v != qgram %v", q, thr, regime, naive, qg)
			}
			if scanned := touched >= pages; scanned != (regime == "heap") {
				t.Errorf("%v @%v (%s): the plan touched %d heap pages of %d", q, thr, regime, touched, pages)
			}
		}
	}
	for _, regime := range []string{"none", "weak>=1", "weak>=2", "heap"} {
		if regimes[regime] == 0 {
			t.Errorf("no query of the fixture runs the %q regime: %v", regime, regimes)
		}
	}
	assertPlansMatchCore(t, cfg, texts, names, 0.30, false)
}

// TestQGramFetchesOnlySurvivors: on 2,000 generated names at threshold
// 0.25 the plan hands to verification only what its filters admitted on
// the postings — every fetched row is a candidate unless the weak list
// supplied it — and that is a small part of the table.
func TestQGramFetchesOnlySurvivors(t *testing.T) {
	const rows, threshold = 2000, 0.25
	op := core.MustNew(core.Options{})
	texts := generatedTexts(t, op, rows)
	cfg, err := CreateNameTable(openDB(t), "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Counters = &metrics.PipelineCounters{}
	var fetched, probes, heapSweeps, queries int
	for _, i := range rand.New(rand.NewSource(24)).Perm(rows)[:100] {
		q := texts[i]
		qp, err := op.Transform(q.Value, q.Lang)
		if err != nil {
			t.Fatal(err)
		}
		qf := op.NewQGramFilter(qp, threshold, cfg.Q)
		gp := new(gramProbe)
		if err := cfg.probe(gp, &qf); err != nil {
			t.Fatal(err)
		}
		if gp.heapSweep {
			heapSweeps++ // the plan reads the table: nothing to bound
			continue
		}
		before := cfg.Counters.Snapshot()
		qg := planIDs(t, NewLexScanQGram(cfg, q, threshold, nil), cfg.IDCol)
		after := cfg.Counters.Snapshot()
		if naive := planIDs(t, NewLexScanNaive(cfg, q, threshold, nil), cfg.IDCol); !reflect.DeepEqual(naive, qg) {
			t.Errorf("%v: naive %v != qgram %v", q, naive, qg)
		}
		if after.Queries-before.Queries != 1 {
			t.Errorf("%v: one execution recorded %d queries", q, after.Queries-before.Queries)
		}
		rowsProbed, pruned := after.Rows-before.Rows, after.PrunedLength-before.PrunedLength+after.PrunedCount-before.PrunedCount
		candidates := int(after.Candidates - before.Candidates)
		if rowsProbed != pruned+int64(candidates) {
			t.Errorf("%v: rows_probed %d != pruned %d + candidates %d", q, rowsProbed, pruned, candidates)
		}
		swept := len(gp.ids) - gp.probed
		if len(gp.ids) > candidates+swept {
			t.Errorf("%v: %d rows fetched for %d candidates and %d rows of the weak list", q, len(gp.ids), candidates, swept)
		}
		queries++
		fetched += len(gp.ids)
		probes += len(qf.Table()) + 1 + len(gp.ids) // gram lists, the weak list, one id lookup per fetched row
	}
	if queries < 80 {
		t.Fatalf("%d of 100 queries sweep the heap: the sample does not measure the index plan", heapSweeps)
	}
	t.Logf("%d queries (%d more sweep the heap): %.1f rows fetched and %.1f B-tree probes a query over %d rows",
		queries, heapSweeps, float64(fetched)/float64(queries), float64(probes)/float64(queries), rows)
	if limit := queries * rows * 15 / 100; fetched >= limit {
		t.Errorf("%d rows fetched over %d queries, not under 15%% of the table (%d)", fetched, queries, limit)
	}
}

// TestQGramPostingsInAnyOrder: nothing in the plan may lean on the order
// postings were inserted in — DML will one day insert into the middle of
// a posting list. A build from the entries shuffled must hold them in
// the loader's (key, value) order, across leaves too, and answer alike.
func TestQGramPostingsInAnyOrder(t *testing.T) {
	cfg, texts := mixedLexFixture(t)
	queries := append([]core.Text{{Value: "Ha", Lang: script.English}}, texts[:30]...)
	var want [][]int64
	for _, q := range queries {
		want = append(want, planIDs(t, NewLexScanQGram(cfg, q, 0.25, nil), cfg.IDCol))
	}
	loaded := coverEntries(t, cfg.CoverIndex)
	entries := slices.Clone(loaded)
	rand.New(rand.NewSource(3)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	rebuildCover(t, cfg.Table.db, cfg.CoverIndex, entries)
	if issues := cfg.CoverIndex.Tree.Check(); len(issues) != 0 {
		t.Fatalf("the shuffled build: %d issues, first: %s", len(issues), issues[0])
	}
	if after := coverEntries(t, cfg.CoverIndex); !reflect.DeepEqual(after, loaded) {
		t.Fatal("the shuffled build holds the entries in another order than the loader's")
	}
	for i, q := range queries {
		if got := planIDs(t, NewLexScanQGram(cfg, q, 0.25, nil), cfg.IDCol); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%v: %v from shuffled postings, %v from the loader's", q, got, want[i])
		}
	}
}

// TestQGramPlanSeesDeletesLikeAnyPlan: the postings outlive their rows
// (nothing maintains them yet); a row deleted after the load is gone for
// the plan all the same, and one deleted under an open snapshot stays
// visible to that snapshot only.
func TestQGramPlanSeesDeletesLikeAnyPlan(t *testing.T) {
	d, cfg, _ := lexFixture(t)
	rids := map[int64]store.RID{}
	err := cfg.Table.Scan(func(rid store.RID, row Row) error {
		rids[row[cfg.IDCol].I] = rid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Text{Value: "Nehru", Lang: script.English}
	both := func(c *LexConfig) []int64 {
		t.Helper()
		qg := planIDs(t, NewLexScanQGram(c, q, 0.30, nil), c.IDCol)
		if naive := planIDs(t, NewLexScanNaive(c, q, 0.30, nil), c.IDCol); !reflect.DeepEqual(naive, qg) {
			t.Errorf("naive %v != qgram %v", naive, qg)
		}
		return qg
	}
	if got := both(cfg); !reflect.DeepEqual(got, []int64{1, 3, 4, 5}) {
		t.Fatalf("before any delete: %v", got)
	}
	if err := cfg.Table.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	if got := both(cfg); !reflect.DeepEqual(got, []int64{1, 4, 5}) {
		t.Errorf("after deleting row 3: %v", got)
	}
	old := *cfg
	old.Snap = d.AcquireSnap()
	defer d.ReleaseSnap(old.Snap)
	if err := cfg.Table.Delete(rids[5]); err != nil {
		t.Fatal(err)
	}
	if got := both(&old); !reflect.DeepEqual(got, []int64{1, 4, 5}) {
		t.Errorf("under the snapshot taken before row 5 was deleted: %v", got)
	}
	if got := both(cfg); !reflect.DeepEqual(got, []int64{1, 4}) {
		t.Errorf("after deleting row 5: %v", got)
	}
}

// TestCheckCatchesStaleCoverIndex injects the two corruptions only check
// can see — the plan trusts a posting's summary and the weak list's
// completeness without touching a row — and expects each reported.
func TestCheckCatchesStaleCoverIndex(t *testing.T) {
	inject := map[string]func(entries []coverEntry) []coverEntry{
		"a posting's summary rewritten": func(entries []coverEntry) []coverEntry {
			for i, e := range entries {
				if id, pos, plen, weak := UnpackCover(e.val); e.key&coverWeakKey == 0 && plen > 2 {
					entries[i].val, _ = CoverValue(id, pos, plen-2, weak)
					break
				}
			}
			return entries
		},
		"a weak-list entry dropped": func(entries []coverEntry) []coverEntry {
			for i, e := range entries {
				if e.key&coverWeakKey != 0 {
					return append(entries[:i], entries[i+1:]...)
				}
			}
			return entries
		},
		"a weak-list entry under another weak key": func(entries []coverEntry) []coverEntry {
			last := &entries[len(entries)-1]
			last.key++
			return entries
		},
	}
	for name, edit := range inject {
		t.Run(name, func(t *testing.T) {
			cfg, _ := weakLexFixture(t)
			d := cfg.Table.db
			if issues := d.Check(); len(issues) != 0 {
				t.Fatalf("check on a fresh build: %v", issues)
			}
			before := coverEntries(t, cfg.CoverIndex)
			after := edit(append([]coverEntry{}, before...))
			if reflect.DeepEqual(before, after) {
				t.Fatal("the injection changed nothing")
			}
			rebuildCover(t, d, cfg.CoverIndex, after)
			issues := d.Check()
			if len(issues) == 0 {
				t.Fatal("check is clean on the corrupted index")
			}
			for _, is := range issues {
				if is.Object != "index "+cfg.CoverIndex.Def.Name {
					t.Errorf("issue against %s: %s", is.Object, is.Detail)
				}
			}
			t.Log(issues)
		})
	}
}

// BenchmarkLexScanQGram times the Table-2 plan on 10,000 generated names
// at the paper's threshold: one query per iteration, drawn in turn from
// a seeded sample of the table.
func BenchmarkLexScanQGram(b *testing.B) {
	const rows = 10000
	op := core.MustNew(core.Options{})
	texts := generatedTexts(b, op, rows)
	dir := b.TempDir() + "/db"
	err := BuildAtomic(dir, Options{}, func(d *DB) error {
		_, err := CreateNameTable(d, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	cfg, err := ResolveLexConfig(d, "names", op)
	if err != nil {
		b.Fatal(err)
	}
	picks := rand.New(rand.NewSource(1)).Perm(rows)[:50]
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := Collect(NewLexScanQGram(cfg, texts[picks[i%len(picks)]], 0.25, nil))
		if err != nil {
			b.Fatal(err)
		}
		matches += len(found)
	}
	if matches < b.N {
		b.Fatalf("%d matches over %d queries: a query must find at least its own row", matches, b.N)
	}
}

// FuzzCoverPosting: whatever a row's id, gram position and summary are,
// the posting either refuses the id or round-trips every field that fits
// and saturates the others to unknown — and a filter deciding on the
// unpacked summary never dismisses what it admits on the true one, so a
// posting can cost a fetch but not a match.
func FuzzCoverPosting(f *testing.F) {
	f.Add(int64(7), 3, 5, 1, []byte{0, 1, 2})
	f.Add(int64(1)<<coverIDBits-1, 254, 254, 254, []byte{})
	f.Add(int64(1)<<coverIDBits, 255, 255, 255, []byte{9})
	f.Add(int64(-1), -1, 300, 1<<20, []byte{0, 0, 0, 0, 0, 0})
	op := core.MustNew(core.Options{})
	var filters []core.QGramFilter
	for _, pat := range []string{"ha", "neːru", "gaːndʱi", "dʒəʋaːɦərlaːlneːru"} {
		for _, thr := range []float64{0.1, 0.25, 0.5} {
			filters = append(filters, op.NewQGramFilter(phoneme.MustParse(pat), thr, core.DefaultQ))
		}
	}
	f.Fuzz(func(t *testing.T, id int64, pos, plen, weak int, ds []byte) {
		v, err := CoverValue(id, pos, plen, weak)
		if fits := id >= 0 && id < 1<<coverIDBits; (err == nil) != fits {
			t.Fatalf("CoverValue(%d, ...) error = %v", id, err)
		}
		if err != nil {
			return
		}
		want := func(n int) int {
			if n < 0 || n > 254 {
				return core.SummaryUnknown
			}
			return n
		}
		gid, gpos, gplen, gweak := UnpackCover(v)
		if gid != id || gpos != want(pos) || gplen != want(plen) || gweak != want(weak) {
			t.Fatalf("(%d, %d, %d, %d) unpacks to (%d, %d, %d, %d)", id, pos, plen, weak, gid, gpos, gplen, gweak)
		}
		if weak >= 0 && weakKey(weak) != coverWeakKey|uint64(min(weak, coverUnknown)) {
			t.Fatalf("weakKey(%d) = %#x", weak, weakKey(weak))
		}
		if plen < 0 || weak < 0 {
			return // not a summary any row has
		}
		disps := make([]int32, len(ds))
		for i, d := range ds {
			disps[i] = int32(d)
		}
		for i := range filters {
			var st core.Stats
			if filters[i].AdmitSummary(plen, weak, disps, &st) && !filters[i].AdmitSummary(gplen, gweak, disps, &st) {
				t.Fatalf("filter %d admits (plen %d, weak %d, %v) but not its posting's (%d, %d)", i, plen, weak, disps, gplen, gweak)
			}
		}
	})
}

// TestWALLoadOfTenThousandRows: one WAL-backed CreateNameTable of 10,000
// generated rows commits — its logged pages fit the buffer pool, and the
// index builds are not logged — and is clean under Check and CheckWAL,
// before and after a reopen.
func TestWALLoadOfTenThousandRows(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10,000-row load")
	}
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	var texts []core.Text
	for _, e := range dataset.Generate(lex, 10000) {
		texts = append(texts, e.Text)
	}
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := CreateNameTable(d, "names", core.MustNew(core.Options{}), texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	if n := cfg.Table.Count(); n != 10000 {
		t.Errorf("%d rows loaded", n)
	}
	for _, reopen := range []bool{false, true} {
		if reopen {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		for _, is := range append(d.Check(), d.CheckWAL()...) {
			t.Errorf("reopened %v: %s", reopen, is)
		}
	}
	d.Close()
}

// TestOpenRefusesStagingHeapLayout: a directory whose catalog still hangs
// the gram index off a <table>_qgrams staging heap, as older builds wrote
// it, is refused with a pointer to the reload.
func TestOpenRefusesStagingHeapLayout(t *testing.T) {
	dir := t.TempDir()
	catalog := `{"tables": [{"name": "names", "columns": [{"name": "id", "type": 1}]},
		{"name": "names_qgrams", "columns": [{"name": "id", "type": 1}, {"name": "gramhash", "type": 1}]}],
	"indexes": [{"name": "names_qgrams_cover", "table": "names_qgrams", "column": "(gramhash)->(id,pos,plen,weak)"}]}`
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(catalog), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err == nil {
		d.Close()
		t.Fatal("a catalog in the staging-heap layout opened")
	}
	if !strings.Contains(err.Error(), "reload with mkdataset") {
		t.Errorf("error %q does not name the reload", err)
	}
}
