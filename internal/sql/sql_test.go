package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/db"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	d, err := db.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s, err := NewSession(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s\n-> %v", sql, err)
	}
	return res
}

// loadBooks builds the Books.com catalog of Figure 1 (the languages
// with converters) through SQL.
func loadBooks(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE Books (Author NVARCHAR, Title NVARCHAR, Price FLOAT, Language TEXT)`)
	mustExec(t, s, `INSERT INTO Books VALUES
		('Descartes' LANG french, 'Les Méditations Metaphysiques', 49.00, 'French'),
		('நேரு' LANG tamil, 'ஆசிய ஜோதி', 250, 'Tamil'),
		('Σαρρη' LANG greek, 'Παιχνίδια στο Πιάνο', 15.50, 'Greek'),
		('Nero' LANG english, 'The Coronation of the Virgin', 99.00, 'English'),
		('Nehru' LANG english, 'Discovery of India', 9.95, 'English'),
		('नेहरु' LANG hindi, 'भारत एक खोज', 175, 'Hindi')`)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC x FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t WHERE a LEXEQUAL 'x' THRESHOLD 2.0",
		"INSERT INTO t VALUES",
		"CREATE TABLE t",
		"SET x",
		"SELECT * FROM t; SELECT * FROM t",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestParseLexEqualForms(t *testing.T) {
	// Figure 3's syntax, both brace styles, wildcard, and join form.
	ok := []string{
		`select Author, Title from Books where Author LexEQUAL 'Nehru' Threshold 0.25 inlanguages { English, Hindi, Tamil, Greek }`,
		`SELECT * FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.25 INLANGUAGES (English)`,
		`SELECT * FROM Books WHERE Author LEXEQUAL 'Nehru' INLANGUAGES { * }`,
		`SELECT * FROM Books WHERE Author LEXEQUAL 'Nehru'`,
		`select Author from Books B1, Books B2 where B1.Author LexEQUAL B2.Author Threshold 0.25 and B1.Language <> B2.Language`,
	}
	for _, q := range ok {
		if _, err := Parse(q); err != nil {
			t.Errorf("rejected %q: %v", q, err)
		}
	}
	stmt, err := Parse(`SELECT * FROM B WHERE a LEXEQUAL 'x' THRESHOLD 0.25 INLANGUAGES {english, hindi}`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	m := sel.Where.(*LexMatch)
	if m.Threshold != 0.25 || len(m.Langs) != 2 {
		t.Errorf("LexMatch parsed wrong: %+v", m)
	}
}

func TestDDLInsertSelect(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT Author, Price FROM Books WHERE Price < 100 ORDER BY Price`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0][1].F != 9.95 {
		t.Errorf("order by price wrong: %v", res.Rows)
	}
	if res.Cols[0] != "Author" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestFigure2Sql1999Query(t *testing.T) {
	// The paper's Figure 2: the SQL:1999 way, an OR of exact constants.
	// Only exact (binary) matches are returned — which is the point.
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `select Author, Title from Books where Author = 'Nehru' or Author = 'नेहरु' or Author = 'நேரு'`)
	if len(res.Rows) != 3 {
		t.Fatalf("Figure 2 query returned %d rows, want 3", len(res.Rows))
	}
}

func TestFigure3LexEqualQuery(t *testing.T) {
	// The paper's Figure 3, expected to return Figure 4's rows: the
	// English, Tamil and Hindi Nehru entries.
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `select Author, Title, Price from Books
		where Author LexEQUAL 'Nehru' Threshold 0.30
		inlanguages { English, Hindi, Tamil, Greek }`)
	authors := map[string]bool{}
	for _, r := range res.Rows {
		authors[r[0].S] = true
	}
	for _, want := range []string{"Nehru", "नेहरु", "நேரு"} {
		if !authors[want] {
			t.Errorf("Figure 3 result missing %q (got %v)", want, authors)
		}
	}
	if authors["Descartes"] || authors["Σαρρη"] {
		t.Errorf("Figure 3 matched unrelated authors: %v", authors)
	}
}

func TestInLanguagesRestriction(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.30 INLANGUAGES { Hindi }`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "नेहरु" {
		t.Errorf("INLANGUAGES{Hindi} = %v", res.Rows)
	}
}

func TestQueryConstantLanguageGuessing(t *testing.T) {
	// A Devanagari constant without a LANG tag is detected as Hindi.
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT Author FROM Books WHERE Author LEXEQUAL 'नेहरु' THRESHOLD 0.30`)
	found := false
	for _, r := range res.Rows {
		if r[0].S == "Nehru" {
			found = true
		}
	}
	if !found {
		t.Errorf("Devanagari query constant did not match English Nehru: %v", res.Rows)
	}
}

func TestFigure5JoinQuery(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `select B1.Author, B2.Author from Books B1, Books B2
		where B1.Author LexEQUAL B2.Author Threshold 0.30
		and B1.Language <> B2.Language`)
	// Nehru appears in 3 languages: 3*2 = 6 ordered cross-language
	// pairs... plus Nero matches at 0.30 against some Nehru variants.
	pairs := map[string]bool{}
	for _, r := range res.Rows {
		pairs[r[0].S+"|"+r[1].S] = true
	}
	for _, want := range []string{"Nehru|नेहरु", "नेहरु|Nehru", "Nehru|நேரு", "நேரு|नेहरु"} {
		if !pairs[want] {
			t.Errorf("join missing pair %s (got %v)", want, pairs)
		}
	}
	// Same-language pairs must be excluded by the Language predicate
	// (including the self-pairs).
	for p := range pairs {
		halves := strings.SplitN(p, "|", 2)
		if halves[0] == halves[1] {
			t.Errorf("self pair leaked: %s", p)
		}
	}
}

func TestJoinStrategiesAgreeViaSQL(t *testing.T) {
	// Build a conventional name table so the planner can use the
	// specialized join; results must not depend on the strategy (modulo
	// indexed false dismissals being a subset).
	s := newTestSession(t)
	op := s.Op
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "Gandhi", Lang: script.English},
		{Value: "गांधी", Lang: script.Hindi},
	}
	if _, err := db.CreateNameTable(s.DB, "names", op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	q := `select N1.id, N2.id from names N1, names N2
		where N1.name LexEQUAL N2.name Threshold 0.30
		and language(N1.name) <> language(N2.name)`
	baseline := mustExec(t, s, q)
	mustExec(t, s, `SET lexequal_strategy = qgram`)
	qg := mustExec(t, s, q)
	if len(qg.Rows) != len(baseline.Rows) {
		t.Errorf("qgram join %d rows, naive %d", len(qg.Rows), len(baseline.Rows))
	}
	mustExec(t, s, `SET lexequal_strategy = indexed`)
	idx := mustExec(t, s, q)
	if len(idx.Rows) > len(baseline.Rows) {
		t.Errorf("indexed join %d rows exceeds naive %d", len(idx.Rows), len(baseline.Rows))
	}
}

func TestSelectionStrategiesViaSQL(t *testing.T) {
	s := newTestSession(t)
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "Nero", Lang: script.English},
		{Value: "Gandhi", Lang: script.English},
	}
	if _, err := db.CreateNameTable(s.DB, "names", s.Op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30 ORDER BY id`
	naive := mustExec(t, s, q)
	mustExec(t, s, `SET lexequal_strategy = qgram`)
	qg := mustExec(t, s, q)
	if len(naive.Rows) != len(qg.Rows) {
		t.Errorf("strategy results differ: naive %v qgram %v", naive.Rows, qg.Rows)
	}
	// EXPLAIN reflects the session strategy.
	exp := mustExec(t, s, `EXPLAIN `+q)
	if !strings.Contains(exp.Rows[0][0].S, "qgram") {
		t.Errorf("EXPLAIN = %v", exp.Rows[0][0].S)
	}
	mustExec(t, s, `SET lexequal_strategy = indexed`)
	exp = mustExec(t, s, `EXPLAIN `+q)
	if !strings.Contains(exp.Rows[0][0].S, "indexed") {
		t.Errorf("EXPLAIN = %v", exp.Rows[0][0].S)
	}
}

func TestGroupByHavingSQL(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT Language, COUNT(*) AS n, SUM(Price) FROM Books GROUP BY Language HAVING COUNT(*) >= 1 ORDER BY Language`)
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5: %v", len(res.Rows), res.Rows)
	}
	if res.Cols[1] != "n" {
		t.Errorf("alias lost: %v", res.Cols)
	}
	// English group has 2 books summing 108.95.
	for _, r := range res.Rows {
		if r[0].S == "English" {
			if r[1].I != 2 || r[2].F != 108.95 {
				t.Errorf("English group = %v", r)
			}
		}
	}
	// HAVING filters.
	res = mustExec(t, s, `SELECT Language, COUNT(*) FROM Books GROUP BY Language HAVING COUNT(*) > 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "English" {
		t.Errorf("having result = %v", res.Rows)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT COUNT(*), MIN(Price), MAX(Price) FROM Books`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I != 6 || r[1].F != 9.95 || r[2].F != 250 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestScalarFunctionsInSQL(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT soundex(Author), phonemes(Author), language(Author) FROM Books WHERE Author = 'Nehru'`)
	r := res.Rows[0]
	if r[0].S != "N600" || r[1].S != "neːru" || r[2].S != "english" {
		t.Errorf("functions = %v", r)
	}
}

func TestShowAndDrop(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SHOW TABLES`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Books" {
		t.Errorf("SHOW TABLES = %v", res.Rows)
	}
	mustExec(t, s, `DROP TABLE Books`)
	res = mustExec(t, s, `SHOW TABLES`)
	if len(res.Rows) != 0 {
		t.Errorf("tables after drop = %v", res.Rows)
	}
}

func TestSetValidation(t *testing.T) {
	s := newTestSession(t)
	for _, bad := range []string{
		`SET lexequal_strategy = warp`,
		`SET lexequal_threshold = 2`,
		`SET lexequal_clusters = imaginary`,
		`SET unknown_setting = 1`,
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	mustExec(t, s, `SET lexequal_threshold = 0.4`)
	if s.Threshold != 0.4 {
		t.Errorf("threshold = %v", s.Threshold)
	}
	mustExec(t, s, `SET lexequal_icsc = 0.5`)
	if s.Op.ICSC() != 0.5 {
		t.Errorf("icsc = %v", s.Op.ICSC())
	}
	mustExec(t, s, `SET lexequal_clusters = coarse`)
	if s.Op.Clusters().Name() != "coarse" {
		t.Errorf("clusters = %v", s.Op.Clusters().Name())
	}
	if s.Op.ICSC() != 0.5 {
		t.Error("icsc lost across cluster change")
	}
	mustExec(t, s, `SET lexequal_weakindel = 0`)
	if s.Op.WeakIndel() != 0 {
		t.Errorf("weakindel = %v", s.Op.WeakIndel())
	}
}

func TestPlannerErrors(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	bad := []string{
		`SELECT nosuch FROM Books`,
		`SELECT * FROM NoTable`,
		`SELECT B.x FROM Books B`,
		`SELECT * FROM Books B, Books B`,
		`SELECT Author FROM Books GROUP BY Language`,
		`SELECT nosuchfunc(Author) FROM Books`,
		`SELECT * FROM Books B1, Books B2, Books B3`,
		`INSERT INTO Books VALUES ('x')`,
		`INSERT INTO NoTable VALUES (1)`,
	}
	for _, q := range bad {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestLimitAndArith(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `SELECT Price * 2 AS double FROM Books ORDER BY Price LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].F != 19.9 {
		t.Errorf("limit/arith = %v", res.Rows)
	}
}

func TestHashJoinPlanViaSQL(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	mustExec(t, s, `CREATE TABLE Prices (Language TEXT, Tax FLOAT)`)
	mustExec(t, s, `INSERT INTO Prices VALUES ('English', 0.1), ('Hindi', 0.2)`)
	res := mustExec(t, s, `SELECT B.Author, P.Tax FROM Books B, Prices P WHERE B.Language = P.Language ORDER BY B.Author`)
	if len(res.Rows) != 3 {
		t.Errorf("hash join rows = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestNoResourceRowsInSQL(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (name NVARCHAR)`)
	mustExec(t, s, `INSERT INTO t VALUES ('بهنسي' LANG arabic), ('Nehru' LANG english)`)
	res := mustExec(t, s, `SELECT name FROM t WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.3`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Nehru" {
		t.Errorf("NORESOURCE handling = %v", res.Rows)
	}
}

func TestDeleteStatement(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	res := mustExec(t, s, `DELETE FROM Books WHERE Price > 100`)
	if res.Affected != 2 { // Tamil (250) and Hindi (175) rows
		t.Fatalf("deleted %d rows, want 2", res.Affected)
	}
	remaining := mustExec(t, s, `SELECT COUNT(*) FROM Books`)
	if remaining.Rows[0][0].I != 4 {
		t.Errorf("remaining = %v", remaining.Rows)
	}
	// Deleted rows no longer match LexEQUAL queries.
	found := mustExec(t, s, `SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.2`)
	for _, r := range found.Rows {
		if r[0].S == "नेहरु" {
			t.Error("deleted Hindi row still matches")
		}
	}
	// Unconditional delete empties the table.
	mustExec(t, s, `DELETE FROM Books`)
	if n := mustExec(t, s, `SELECT COUNT(*) FROM Books`); n.Rows[0][0].I != 0 {
		t.Errorf("count after full delete = %v", n.Rows)
	}
	// Errors.
	if _, err := s.Exec(`DELETE FROM NoTable`); err == nil {
		t.Error("delete from missing table accepted")
	}
	if _, err := s.Exec(`DELETE FROM Books WHERE nosuch = 1`); err == nil {
		t.Error("delete with bad predicate accepted")
	}
}

func TestDeleteWithStaleIndexEntries(t *testing.T) {
	// Index readers must skip tombstoned rows: delete from an indexed
	// name table, then query through every strategy.
	s := newTestSession(t)
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
	}
	if _, err := db.CreateNameTable(s.DB, "names", s.Op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `DELETE FROM names WHERE id = 1`)
	for _, strat := range []string{"naive", "qgram", "indexed"} {
		mustExec(t, s, `SET lexequal_strategy = `+strat)
		res := mustExec(t, s, `SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.3`)
		for _, r := range res.Rows {
			if r[0].I == 1 {
				t.Errorf("strategy %s returned the deleted row", strat)
			}
		}
		if len(res.Rows) == 0 {
			t.Errorf("strategy %s returned nothing", strat)
		}
	}
}

func TestFoldUDF(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (name NVARCHAR)`)
	mustExec(t, s, `INSERT INTO t VALUES ('René' LANG french), ('Rene' LANG english)`)
	// Accent-insensitive equality via fold(): the cheap lexicographic
	// normalization complementing the phonetic operator.
	res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE fold(name) = 'Rene'`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("fold equality matched %v rows", res.Rows[0][0])
	}
}

func TestExplainNaiveAndOrderByAggregate(t *testing.T) {
	s := newTestSession(t)
	loadBooks(t, s)
	// Books lacks the conventional pname/id layout, so the planner uses
	// the generic per-row predicate.
	exp := mustExec(t, s, `EXPLAIN SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru'`)
	if !strings.Contains(exp.Rows[0][0].S, "generic") {
		t.Errorf("EXPLAIN = %v", exp.Rows[0][0].S)
	}
	// ORDER BY an aggregate output.
	res := mustExec(t, s, `SELECT Language, COUNT(*) FROM Books GROUP BY Language ORDER BY COUNT(*) DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "English" {
		t.Errorf("order-by-aggregate = %v", res.Rows)
	}
}

// TestQGramUnderAnotherClusterSet: the gram index holds postings
// projected under the cluster set of its load. A session under another
// set must not read them — they would dismiss rows its operator matches —
// so the q-gram strategy falls back to the naive scan there, and answers
// as naive does under every set.
func TestQGramUnderAnotherClusterSet(t *testing.T) {
	s := newTestSession(t)
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	var texts []core.Text
	for _, e := range dataset.Generate(lex, 1500) {
		texts = append(texts, e.Text)
	}
	if _, err := db.CreateNameTable(s.DB, "names", s.Op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, i := range rand.New(rand.NewSource(43)).Perm(len(texts))[:100] {
		queries = append(queries, fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL '%s' LANG %s THRESHOLD 0.25 ORDER BY id",
			strings.ReplaceAll(texts[i].Value, "'", "''"), texts[i].Lang))
	}
	for _, clusters := range []string{"default", "coarse", "fine"} {
		mustExec(t, s, `SET lexequal_clusters = `+clusters)
		want := map[string]string{"default": "qgram", "coarse": "naive", "fine": "naive"}[clusters]
		mustExec(t, s, `SET lexequal_strategy = qgram`)
		if plan := mustExec(t, s, `EXPLAIN `+queries[0]).Rows[0][0].S; !strings.Contains(plan, want) {
			t.Errorf("%s: EXPLAIN = %q, want the %s scan", clusters, plan, want)
		}
		lost := 0
		for _, q := range queries {
			mustExec(t, s, `SET lexequal_strategy = naive`)
			naive := fmt.Sprint(mustExec(t, s, q).Rows)
			mustExec(t, s, `SET lexequal_strategy = qgram`)
			if qg := fmt.Sprint(mustExec(t, s, q).Rows); qg != naive {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%s: the q-gram strategy differs from naive on %d of %d queries", clusters, lost, len(queries))
		}
	}
}
