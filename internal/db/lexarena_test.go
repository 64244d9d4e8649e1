package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/store"
	"lexequal/internal/ttp"
)

// arenaFixture loads a names table that spans four verification
// morsels and three page morsels, over a pool it is several times the size
// of, and then disturbs it the ways a plan's arena must be indifferent
// to: rows deleted before the snapshot (gone; among them the last row of
// the first page morsel and the first of the second), rows inserted with
// a NULL pname (their phonemes come from the Op.Transform fallback), and
// — after the snapshot cfg.Snap is taken — more inserts (not yet there,
// enough to fill a page) and a delete of the row that opens the second
// page morsel (still there). It returns the ids involved.
type arenaFixture struct {
	cfg     *LexConfig
	texts   []core.Text
	gone    []int64 // deleted before the snapshot
	nullPh  []int64 // inserted before the snapshot with NULL pname; copies of texts[id-1000]
	late    []int64 // inserted after the snapshot
	lateDel int64   // deleted after the snapshot
}

// smallPool is the per-file buffer pool of the scan fixtures: their
// heaps are several times its size, so a scan faults page after page.
const smallPool = 5

// smallPoolNames bulk-loads texts into a names table and reopens the
// database, WAL on, with a pool of smallPool pages per file.
func smallPoolNames(t *testing.T, op *core.Operator, texts []core.Text) (*DB, *LexConfig) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	err := BuildAtomic(dir, Options{}, func(d *DB) error {
		_, err := CreateNameTable(d, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenWithCache(dir, smallPool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	cfg, err := ResolveLexConfig(d, "names", op)
	if err != nil {
		t.Fatal(err)
	}
	if pages := int(cfg.Table.Heap.Pager().NumPages()) - 1; pages < 3*smallPool || pages <= scanMorselPages {
		t.Fatalf("the heap has %d data pages: too few for the pool of %d and morsels of %d", pages, smallPool, scanMorselPages)
	}
	return d, cfg
}

func newArenaFixture(t *testing.T) *arenaFixture {
	t.Helper()
	op := core.MustNew(core.Options{})
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	all := lex.Texts()
	var texts []core.Text
	for _, i := range rand.New(rand.NewSource(23)).Perm(len(all))[:3*core.MorselSize+40] {
		texts = append(texts, all[i])
	}
	d, cfg := smallPoolNames(t, op, texts)
	rids := map[int64]store.RID{}
	byPage := map[store.PageID][]int64{}
	err = cfg.Table.Scan(func(rid store.RID, row Row) error {
		id := row[cfg.IDCol].I
		rids[id] = rid
		byPage[rid.Page] = append(byPage[rid.Page], id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rows either side of the first page-morsel boundary.
	last, next := byPage[scanMorselPages], byPage[scanMorselPages+1]
	f := &arenaFixture{cfg: cfg, texts: texts, gone: []int64{3, 255, 256, 400, last[len(last)-1]}, lateDel: next[0]}
	// insert stores a copy of texts[src] under a new id, with its pname
	// or with NULL there.
	insert := func(id int64, src int, stored bool) {
		t.Helper()
		p, err := op.Transform(texts[src].Value, texts[src].Lang)
		if err != nil {
			t.Fatal(err)
		}
		pname := Null()
		if stored {
			pname = Str(p.IPA())
		}
		gid := int64(op.Encoder().Encode(p))
		if _, err := cfg.Table.Insert(Row{Int(id), NStr(texts[src].Value, texts[src].Lang), pname, Int(gid)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range f.gone {
		if err := cfg.Table.Delete(rids[id]); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []int{0, 1, 2, 300} {
		f.nullPh = append(f.nullPh, int64(1000+src))
		insert(int64(1000+src), src, false)
	}
	cfg.Snap = d.AcquireSnap()
	t.Cleanup(func() { d.ReleaseSnap(cfg.Snap) })
	for _, src := range []int{0, 1, 5} {
		f.late = append(f.late, int64(2000+src))
		insert(int64(2000+src), src, true)
	}
	for src := 10; src < 60; src++ { // onto a page the snapshot never saw
		f.late = append(f.late, int64(3000+src))
		insert(int64(3000+src), src, true)
	}
	if err := cfg.Table.Delete(rids[f.lateDel]); err != nil {
		t.Fatal(err)
	}
	return f
}

// planRun is one execution of a plan: its rows and its kernel-
// independent counters.
type planRun struct {
	rows  []Row
	canon metrics.PipelineSnapshot
}

func runPlan(t *testing.T, cfg *LexConfig, kern core.Kernel, workers int, plan func(*LexConfig) Node) planRun {
	t.Helper()
	run := *cfg
	run.Kernel, run.Workers, run.Counters = kern, workers, &metrics.PipelineCounters{}
	rows, err := Collect(plan(&run))
	if err != nil {
		t.Fatal(err)
	}
	st := run.Counters.Snapshot()
	st.DPCells, st.BitvecOps, st.ScalarFallbacks = 0, 0, 0 // what core.Stats.Canon masks
	return planRun{rows, st}
}

// assertWidthAndKernelInvariant runs plan under kernel {auto, scalar} ×
// Workers {1, 2, 0} and holds every run to the (auto, 1) run: same rows,
// same order, same canonical counters.
func assertWidthAndKernelInvariant(t *testing.T, name string, cfg *LexConfig, plan func(*LexConfig) Node) planRun {
	t.Helper()
	base := runPlan(t, cfg, core.KernelAuto, 1, plan)
	for _, kern := range []core.Kernel{core.KernelAuto, core.KernelScalar} {
		for _, workers := range []int{1, 2, 0} {
			got := runPlan(t, cfg, kern, workers, plan)
			if !reflect.DeepEqual(got.rows, base.rows) {
				t.Errorf("%s kernel=%v workers=%d: %d rows, differ from the %d of auto/1 (or their order)", name, kern, workers, len(got.rows), len(base.rows))
			}
			if got.canon != base.canon {
				t.Errorf("%s kernel=%v workers=%d: counters %+v, auto/1 had %+v", name, kern, workers, got.canon, base.canon)
			}
		}
	}
	return base
}

var lexScans = map[core.Strategy]func(*LexConfig, core.Text, float64, core.LangSet) Node{
	core.Naive: NewLexScanNaive, core.QGram: NewLexScanQGram, core.Indexed: NewLexScanIndexed,
}

// TestLexPlansIdenticalAtAnyWidth is the plan-identity gate for the
// arena and the per-morsel batch build: the naive scan's page walk,
// tokenizing, signatures, filters and kernel all run on the pool, and
// none of it may show in a result.
func TestLexPlansIdenticalAtAnyWidth(t *testing.T) {
	f := newArenaFixture(t)
	cfg := f.cfg
	queries := []core.Text{f.texts[0], f.texts[1], f.texts[2], f.texts[300], f.texts[3], f.texts[7], f.texts[5], f.texts[511],
		f.texts[f.gone[len(f.gone)-1]], f.texts[f.lateDel], f.texts[10]}
	someLangs := core.NewLangSet(script.English, script.Hindi)
	for _, strat := range []core.Strategy{core.Naive, core.QGram, core.Indexed} {
		for _, langs := range []core.LangSet{nil, someLangs} {
			for qi, q := range queries {
				name := fmt.Sprintf("%v langs=%v query %d", strat, langs != nil, qi)
				base := assertWidthAndKernelInvariant(t, name, cfg, func(c *LexConfig) Node {
					return lexScans[strat](c, q, 0.25, langs)
				})
				got := map[int64]bool{}
				for _, r := range base.rows {
					got[r[cfg.IDCol].I] = true
					if l := r[cfg.NameCol].Lang; !langs.Contains(l) {
						t.Errorf("%s: returned a row in %s", name, l)
					}
				}
				for _, id := range append(append([]int64{}, f.gone...), f.late...) {
					if got[id] {
						t.Errorf("%s: returned row %d, which the snapshot does not hold", name, id)
					}
				}
				// A query drawn from the table must find its own row — the one
				// deleted after the snapshot included — and that row's
				// NULL-pname copy, through the Transform fallback. The q-gram
				// plan is excused: only the bulk loader fills its gram
				// structures, so it never learns of the inserted copies.
				if strat == core.QGram || !langs.Contains(q.Lang) {
					continue
				}
				for _, id := range f.nullPh {
					if q == f.texts[id-1000] && !got[id] {
						t.Errorf("%s: the NULL-pname copy %d of the query's row is missing", name, id)
					}
				}
				if q == f.texts[f.lateDel] && !got[f.lateDel] {
					t.Errorf("%s: row %d, deleted after the snapshot, is missing", name, f.lateDel)
				}
			}
		}
		base := assertWidthAndKernelInvariant(t, fmt.Sprintf("%v join", strat), cfg, func(c *LexConfig) Node {
			return NewLexJoin(c, c, 0.25, true, strat)
		})
		if len(base.rows) == 0 {
			t.Errorf("%v join found no pairs", strat)
		}
	}
}

func TestLexPlansOnEmptyTable(t *testing.T) {
	op := core.MustNew(core.Options{})
	cfg, err := CreateNameTable(openDB(t), "names", op, nil, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Text{Value: "Nehru", Lang: script.English}
	for strat, scan := range lexScans {
		base := assertWidthAndKernelInvariant(t, fmt.Sprintf("%v scan", strat), cfg, func(c *LexConfig) Node { return scan(c, q, 0.25, nil) })
		join := assertWidthAndKernelInvariant(t, fmt.Sprintf("%v join", strat), cfg, func(c *LexConfig) Node { return NewLexJoin(c, c, 0.25, false, strat) })
		if len(base.rows)+len(join.rows) != 0 {
			t.Errorf("%v: %d scan rows and %d join rows from an empty table", strat, len(base.rows), len(join.rows))
		}
	}
}

// TestLexScanNaiveSeesItsSnapshotUnderWriter: while another session
// inserts matching rows and deletes rows all over the heap, each width-4
// scan returns exactly the matches of the snapshot it ran under — what a
// scan holding the heap latch throughout finds in that snapshot.
func TestLexScanNaiveSeesItsSnapshotUnderWriter(t *testing.T) {
	op := core.MustNew(core.Options{})
	texts := generatedTexts(t, op, 800)
	d, cfg := smallPoolNames(t, op, texts)
	q := texts[0]
	qp, err := op.Transform(q.Value, q.Lang)
	if err != nil {
		t.Fatal(err)
	}
	var rids []store.RID
	err = cfg.Table.Scan(func(rid store.RID, _ Row) error {
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := func(s *Snap) []int64 {
		var ids []int64
		err := cfg.Table.ScanSnap(s, func(_ store.RID, row Row) error {
			if op.MatchPhonemes(qp, phoneme.ParseLenient(row[cfg.PhonCol].S), 0.25) {
				ids = append(ids, row[cfg.IDCol].I)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		return ids
	}

	// The writer inserts a copy of the query's row and deletes a loaded
	// row, one autocommit statement each, until stopped.
	var commits atomic.Int64
	stop, werr := make(chan struct{}), make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gid := int64(op.Encoder().Encode(qp))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := errors.Join(
				func() error {
					_, err := cfg.Table.Insert(Row{Int(int64(10000 + i)), NStr(q.Value, q.Lang), Str(qp.IPA()), Int(gid)})
					return err
				}(),
				cfg.Table.Delete(rids[(i*37+11)%len(rids)]))
			if err != nil && !errors.Is(err, store.ErrDeleted) {
				werr <- err
				return
			}
			commits.Add(1)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		select {
		case err := <-werr:
			t.Fatalf("writer: %v", err)
		default:
		}
	}()

	sizes := map[int]bool{}
	for i := 0; i < 12; i++ {
		// Let the writer commit between scans, so every snapshot differs.
		for seen := commits.Load(); commits.Load() == seen; runtime.Gosched() {
			select {
			case err := <-werr:
				t.Fatalf("writer: %v", err)
			default:
			}
		}
		run := *cfg
		run.Snap, run.Workers = d.AcquireSnap(), 4
		got := planIDs(t, NewLexScanNaive(&run, q, 0.25, nil), cfg.IDCol)
		exp := want(run.Snap)
		d.ReleaseSnap(run.Snap)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("scan %d: %v, its snapshot holds %v", i, got, exp)
		}
		sizes[len(exp)] = true
	}
	if len(sizes) < 2 {
		t.Errorf("every snapshot held the same number of matches (%v): the writer made no difference", sizes)
	}
}

// TestLexScanNaiveCorruptPage: a damaged page mid-heap fails the scan
// with the same error at every width — the first damaged page in heap
// order, though a later one sits in another morsel — leaving no pin held
// and no goroutine running; once repaired, the table checks clean and
// answers as before.
func TestLexScanNaiveCorruptPage(t *testing.T) {
	op := core.MustNew(core.Options{})
	texts := generatedTexts(t, op, 1200)
	d, cfg := smallPoolNames(t, op, texts)
	q := texts[0]
	scan := func(workers int) ([]Row, error) {
		run := *cfg
		run.Workers = workers
		return Collect(NewLexScanNaive(&run, q, 0.25, nil))
	}
	clean, err := scan(1)
	if err != nil {
		t.Fatal(err)
	}

	bad := []store.PageID{2*scanMorselPages - 2, 3*scanMorselPages - 1} // two morsels, the first one's later
	heap, err := os.OpenFile(d.heapPath("names"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	flip := func() {
		t.Helper()
		for _, id := range bad {
			var b [1]byte
			off := int64(id)*store.PageSize + 100
			if _, err := heap.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := heap.WriteAt(b[:], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	flip()

	goroutines := runtime.NumGoroutine()
	var first error
	for _, workers := range []int{1, 2, 0, 4} {
		// More scans than the pool has pages: a pin leaked per failed scan
		// would exhaust it and change the error.
		for rep := 0; rep < smallPool+1; rep++ {
			_, err := scan(workers)
			var cpe *store.CorruptPageError
			if !errors.As(err, &cpe) || cpe.Page != bad[0] {
				t.Fatalf("workers=%d: %v, want the corruption of page %d", workers, err, bad[0])
			}
			if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Errorf("workers=%d: %v, workers=1 reported %v", workers, err, first)
			}
		}
	}
	// A worker that has signalled its WaitGroup may not have exited yet;
	// give exiting goroutines a moment, a leaked one never leaves.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > goroutines && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > goroutines {
		t.Errorf("%d goroutines after the failed scans, %d before", n, goroutines)
	}

	flip()
	if issues := d.Check(); len(issues) != 0 {
		t.Fatalf("check after the repair: %v", issues)
	}
	rows, err := scan(2)
	if err != nil || !reflect.DeepEqual(rows, clean) {
		t.Errorf("after the repair: %d rows (%v), %d before the damage", len(rows), err, len(clean))
	}
}

// BenchmarkLexScanNaive times the Table-1 plan on 10,000 generated names
// at the paper's threshold, over a 200-page pool the heap does not fit
// in (every page faults, as in the bench's scan_naive), at width 2: one
// query per iteration, drawn in turn from a seeded sample of the table.
func BenchmarkLexScanNaive(b *testing.B) {
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
	d, err := OpenWithCache(dir, 200)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	cfg, err := ResolveLexConfig(d, "names", op)
	if err != nil {
		b.Fatal(err)
	}
	if pages := cfg.Table.Heap.Pager().NumPages(); pages <= 200 {
		b.Fatalf("the heap has %d pages: it fits in the pool", pages)
	}
	cfg.Workers = 2
	picks := rand.New(rand.NewSource(1)).Perm(rows)[:50]
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := Collect(NewLexScanNaive(cfg, texts[picks[i%len(picks)]], 0.25, nil))
		if err != nil {
			b.Fatal(err)
		}
		matches += len(found)
	}
	if matches < b.N {
		b.Fatalf("%d matches over %d queries: a query must find at least its own row", matches, b.N)
	}
}

// randomRow draws a row over every Type, with NULLs, empty strings and
// multi-byte names, laid out like a names table at the columns cfg
// points to.
func randomRow(rng *rand.Rand, n int) Row {
	strs := []string{"", "a", "neːru", "नेहरु", "நேரு", "dʒəvaːɦərlaːl", "\x00\xff"}
	langs := []script.Language{script.English, script.Hindi, script.Tamil, "", "x-unknown"}
	row := make(Row, n)
	for i := range row {
		switch Type(rng.Intn(5)) {
		case TNull:
			row[i] = Null()
		case TInt:
			row[i] = Int(rng.Int63() - rng.Int63())
		case TFloat:
			row[i] = Float(rng.NormFloat64())
		case TString:
			row[i] = Str(strs[rng.Intn(len(strs))])
		case TNString:
			row[i] = NStr(strs[rng.Intn(len(strs))], langs[rng.Intn(len(langs))])
		}
	}
	return row
}

// TestLocateAgreesWithDecodeRow: the arena reads the language tag, the
// stored phonemes and the id of a record by walking its length prefixes;
// on any bytes at all it must find what DecodeRow decodes, or fail with
// DecodeRow's error — and never panic or slice out of range.
func TestLocateAgreesWithDecodeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 5
	cfg := &LexConfig{Table: &Table{Columns: make(Schema, n)}}
	check := func(body []byte) {
		t.Helper()
		cfg.IDCol, cfg.NameCol, cfg.PhonCol = rng.Intn(n+1)-1, rng.Intn(n), rng.Intn(n+1)-1
		row, derr := DecodeRow(body, n)
		f, lerr := cfg.locate(body)
		if (derr == nil) != (lerr == nil) || derr != nil && derr.Error() != lerr.Error() {
			t.Fatalf("body %x: DecodeRow error %v, locate error %v", body, derr, lerr)
		}
		if derr != nil {
			return
		}
		var want lexFields
		if cfg.IDCol >= 0 && row[cfg.IDCol].T == TInt {
			want.id = row[cfg.IDCol].I
		}
		if v := row[cfg.NameCol]; v.T == TNString {
			want.named, want.name, want.lang = true, []byte(v.S), []byte(v.Lang)
		}
		if cfg.PhonCol >= 0 && row[cfg.PhonCol].T == TString {
			want.stored, want.phon = true, []byte(row[cfg.PhonCol].S)
		}
		if f.id != want.id || f.named != want.named || f.stored != want.stored ||
			!bytes.Equal(f.name, want.name) || !bytes.Equal(f.lang, want.lang) || !bytes.Equal(f.phon, want.phon) {
			t.Fatalf("row %v (id %d name %d pname %d): located %+v, decoded %+v", row, cfg.IDCol, cfg.NameCol, cfg.PhonCol, f, want)
		}
	}
	for i := 0; i < 3000; i++ {
		body := randomRow(rng, n).Encode()
		check(body)
		// Truncated anywhere, extended, and with any one byte rewritten
		// (type bytes and length prefixes among them).
		check(body[:rng.Intn(len(body)+1)])
		check(append(append([]byte{}, body...), byte(rng.Intn(256))))
		hit := append([]byte{}, body...)
		if len(hit) > 0 {
			hit[rng.Intn(len(hit))] = byte(rng.Intn(256))
		}
		check(hit)
	}
	check(nil)
}

// TestArenaReportsCorruptRecord: a damaged record under a lex scan is
// reported against its table and RID with DecodeRow's own error, as the
// decoding scan reported it, not swallowed and not a panic.
func TestArenaReportsCorruptRecord(t *testing.T) {
	_, cfg, _ := lexFixture(t)
	bad := stampVersion(0, Row{Int(99), NStr("Nehru", script.English)}.Encode()) // two values short
	if _, err := cfg.Table.Heap.InsertTx(bad, nil); err != nil {
		t.Fatal(err)
	}
	_, derr := DecodeRow(bad[verHdr:], len(cfg.Table.Columns))
	if derr == nil {
		t.Fatal("the planted record decodes")
	}
	serr := cfg.Table.Scan(func(store.RID, Row) error { return nil })
	q := core.Text{Value: "Nehru", Lang: script.English}
	for name, node := range map[string]Node{
		"naive": NewLexScanNaive(cfg, q, 0.25, nil),
		"join":  NewLexJoin(cfg, cfg, 0.25, false, core.Naive),
	} {
		_, err := Collect(node)
		if err == nil || serr == nil || err.Error() != serr.Error() {
			t.Errorf("%s over a corrupt record: %v; Table.Scan reports %v", name, err, serr)
		}
	}
}
