package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/metrics"
	"lexequal/internal/script"
	"lexequal/internal/store"
	"lexequal/internal/ttp"
)

// arenaFixture loads a names table that spans three morsels and then
// disturbs it the ways a plan's arena must be indifferent to: rows
// deleted before the snapshot (gone), rows inserted with a NULL pname
// (their phonemes come from the Op.Transform fallback), and — after the
// snapshot cfg.Snap is taken — more inserts (not yet there) and a delete
// (still there). It returns the ids involved.
type arenaFixture struct {
	cfg     *LexConfig
	texts   []core.Text
	gone    []int64 // deleted before the snapshot
	nullPh  []int64 // inserted before the snapshot with NULL pname; copies of texts[id-1000]
	late    []int64 // inserted after the snapshot
	lateDel int64   // deleted after the snapshot
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
	for _, i := range rand.New(rand.NewSource(23)).Perm(len(all))[:2*core.MorselSize+40] {
		texts = append(texts, all[i])
	}
	d := openDB(t)
	cfg, err := CreateNameTable(d, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	f := &arenaFixture{cfg: cfg, texts: texts, gone: []int64{3, 255, 256, 400}, lateDel: 7}
	rids := map[int64]store.RID{}
	err = cfg.Table.Scan(func(rid store.RID, row Row) error {
		rids[row[cfg.IDCol].I] = rid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
// arena and the per-morsel batch build: tokenizing, signatures, filters
// and kernel all run on the pool, and none of it may show in a result.
func TestLexPlansIdenticalAtAnyWidth(t *testing.T) {
	f := newArenaFixture(t)
	cfg := f.cfg
	queries := []core.Text{f.texts[0], f.texts[1], f.texts[2], f.texts[300], f.texts[3], f.texts[7], f.texts[5], f.texts[511]}
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
