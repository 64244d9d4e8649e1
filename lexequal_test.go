package lexequal

import (
	"fmt"
	"strings"
	"testing"

	"lexequal/internal/dataset"
	"lexequal/internal/ttp"
)

func TestNewDefault(t *testing.T) {
	m := NewDefault()
	if m.Threshold() != 0.30 {
		t.Errorf("default threshold = %v", m.Threshold())
	}
	if len(m.Languages()) != 6 {
		t.Errorf("languages = %v", m.Languages())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := 2.0
	if _, err := New(Config{ICSC: &bad}); err == nil {
		t.Error("ICSC=2 accepted")
	}
	if _, err := New(Config{Clusters: "bogus"}); err == nil {
		t.Error("bogus clusters accepted")
	}
	zero := 0.0
	m, err := New(Config{ICSC: &zero, WeakIndel: &zero})
	if err != nil || m == nil {
		t.Errorf("explicit zeros rejected: %v", err)
	}
}

func TestMatcherHeadline(t *testing.T) {
	m := NewDefault()
	names := []Text{
		T("Nehru", English), T("नेहरु", Hindi), T("நேரு", Tamil), T("Νερου", Greek),
	}
	for _, a := range names {
		for _, b := range names {
			res, err := m.Match(a, b)
			if err != nil || res != True {
				ex, _ := m.Explain(a, b, -1)
				t.Errorf("%v vs %v = %v, %v\n%v", a, b, res, err, ex)
			}
		}
	}
	res, err := m.Match(T("Nehru", English), T("Gandhi", English))
	if err != nil || res != False {
		t.Errorf("Nehru/Gandhi = %v, %v", res, err)
	}
	res, err = m.Match(T("Nehru", English), T("بهنسي", Arabic))
	if err != nil || res != NoResource {
		t.Errorf("Arabic = %v, %v", res, err)
	}
}

func TestMatcherPhonemes(t *testing.T) {
	m := NewDefault()
	p, err := m.Phonemes("Nehru", English)
	if err != nil || p != "neːru" {
		t.Errorf("Phonemes = %q, %v", p, err)
	}
	if _, err := m.Phonemes("x", Arabic); err == nil {
		t.Error("Arabic transcription succeeded")
	}
}

func TestGuessLanguage(t *testing.T) {
	if GuessLanguage("नेहरु") != Hindi || GuessLanguage("Nehru") != English {
		t.Error("GuessLanguage wrong")
	}
}

func TestSoundexFacade(t *testing.T) {
	if Soundex("Nehru") != "N600" {
		t.Errorf("Soundex = %q", Soundex("Nehru"))
	}
}

func TestCorpusFacade(t *testing.T) {
	m := NewDefault()
	c, err := m.NewCorpus([]Text{
		T("Nehru", English), T("नेहरु", Hindi), T("Gandhi", English), T("காந்தி", Tamil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Naive, QGram, Indexed} {
		got, st, err := m.Select(c, T("Nehru", English), 0.3, nil, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if strat != Indexed && len(got) != 2 {
			t.Errorf("%v select = %v (stats %+v)", strat, got, st)
		}
	}
	// Language-filtered select.
	got, _, err := m.Select(c, T("Nehru", English), 0.3, NewLangSet(Hindi), Naive)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf("filtered select = %v, %v", got, err)
	}
	// Join.
	pairs, _, err := SelfJoin(c, 0.3, true, Naive)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pairs {
		if p.Left == 2 && p.Right == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("join missing Gandhi pair: %v", pairs)
	}
}

func TestDBFacade(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.MustExec(`CREATE TABLE Books (Author NVARCHAR, Title NVARCHAR, Price FLOAT)`)
	d.MustExec(`INSERT INTO Books VALUES
		('Nehru' LANG english, 'Discovery of India', 9.95),
		('नेहरु' LANG hindi, 'भारत एक खोज', 175),
		('Nero' LANG english, 'The Coronation of the Virgin', 99)`)
	res := d.MustExec(`SELECT Author, Title FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.2`)
	authors := map[string]bool{}
	for _, r := range res.Rows {
		authors[r[0].S] = true
	}
	if !authors["Nehru"] || !authors["नेहरु"] {
		t.Fatalf("rows = %v", res.Rows)
	}
	// At a tight threshold the Nero near-homophone must drop out (the
	// paper's threshold-dependent false-positive example).
	tight := d.MustExec(`SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.05`)
	for _, r := range tight.Rows {
		if r[0].S == "Nero" {
			t.Error("Nero matched at threshold 0.05")
		}
	}
	if got := d.Tables(); len(got) != 1 || got[0] != "Books" {
		t.Errorf("Tables = %v", got)
	}
	out := Format(res)
	if !strings.Contains(out, "Nehru") || !strings.Contains(out, "नेहरु") {
		t.Errorf("Format output:\n%s", out)
	}
}

func TestDBLoadNames(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	texts := []Text{
		T("Nehru", English), T("नेहरु", Hindi), T("Gandhi", English),
	}
	if err := d.LoadNames("names", texts, NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	d.MustExec(`SET lexequal_strategy = indexed`)
	res := d.MustExec(`SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.1`)
	if len(res.Rows) == 0 {
		t.Error("indexed SQL select found nothing")
	}
}

func TestFormatMessageOnly(t *testing.T) {
	if got := Format(&QueryResult{Message: "ok"}); got != "ok\n" {
		t.Errorf("Format message = %q", got)
	}
	if Format(nil) != "" {
		t.Error("Format(nil) non-empty")
	}
}

func TestPaperLexiconFacade(t *testing.T) {
	entries, err := PaperLexicon()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2000 {
		t.Fatalf("lexicon has %d entries", len(entries))
	}
	langs := map[Language]bool{}
	for _, e := range entries {
		langs[e.Lang] = true
	}
	for _, want := range []Language{English, Hindi, Tamil} {
		if !langs[want] {
			t.Errorf("lexicon missing %v entries", want)
		}
	}
}

func TestSuggestAndEvaluateQuality(t *testing.T) {
	// A small hand-tagged training set.
	entries := []TaggedText{
		{Text: T("Nehru", English), Tag: 0},
		{Text: T("नेहरु", Hindi), Tag: 0},
		{Text: T("நேரு", Tamil), Tag: 0},
		{Text: T("Gandhi", English), Tag: 1},
		{Text: T("गांधी", Hindi), Tag: 1},
		{Text: T("காந்தி", Tamil), Tag: 1},
		{Text: T("Kamala", English), Tag: 2},
		{Text: T("कमला", Hindi), Tag: 2},
		{Text: T("கமலா", Tamil), Tag: 2},
	}
	best, err := SuggestParameters(entries)
	if err != nil {
		t.Fatal(err)
	}
	if best.Recall < 0.8 || best.Precision < 0.8 {
		t.Errorf("suggested point weak: %+v", best)
	}
	pt, err := EvaluateQuality(entries, best.ICSC, best.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Recall != best.Recall || pt.Precision != best.Precision {
		t.Errorf("EvaluateQuality(%v,%v) = %+v, suggest said %+v", best.ICSC, best.Threshold, pt, best)
	}
}

func TestMetricIndexFacade(t *testing.T) {
	m := NewDefault()
	c, err := m.NewCorpus([]Text{
		T("Nehru", English), T("नेहरु", Hindi), T("Gandhi", English),
	})
	if err != nil {
		t.Fatal(err)
	}
	mi := NewMetricIndex(c)
	rows, _, err := SelectMetric(c, mi, T("Nehru", English), 0.3, nil)
	if err != nil || len(rows) != 2 {
		t.Errorf("metric select = %v, %v", rows, err)
	}
}

func TestSQLDeleteThroughFacade(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.MustExec(`CREATE TABLE t (x INT)`)
	d.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	res := d.MustExec(`DELETE FROM t WHERE x >= 2`)
	if res.Affected != 2 {
		t.Errorf("deleted %d", res.Affected)
	}
	left := d.MustExec(`SELECT COUNT(*) FROM t`)
	if left.Rows[0][0].I != 1 {
		t.Errorf("remaining = %v", left.Rows)
	}
}

// End-to-end SQL overhead: the Figure 3 query through the parser and
// planner, over 2,000 generated names under the q-gram strategy.
func BenchmarkSQLSelectLexEqual(b *testing.B) {
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		b.Fatal(err)
	}
	d, err := OpenWith(b.TempDir(), NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var texts []Text
	for _, e := range dataset.Generate(lex, 2000) {
		texts = append(texts, e.Text)
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
