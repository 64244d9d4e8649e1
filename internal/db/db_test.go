package db

import (
	"reflect"
	"testing"
	"testing/quick"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null()},
		{Int(42), Float(3.25), Str("hello"), NStr("नेहरु", script.Hindi)},
		{Int(-1), Str(""), NStr("", script.Unknown), Null()},
		{Str("embedded\x00nul and ünïcode — नेहरु")},
	}
	for _, r := range rows {
		got, err := DecodeRow(r.Encode(), len(r))
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if !reflect.DeepEqual(got, append(Row{}, r...)) && !(len(got) == 0 && len(r) == 0) {
			t.Errorf("round trip %v -> %v", r, got)
		}
	}
}

func TestRowCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeRow([]byte{99}, 1); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := DecodeRow([]byte{byte(TInt), 1, 2}, 1); err == nil {
		t.Error("truncated int accepted")
	}
	r := Row{Int(1)}
	if _, err := DecodeRow(append(r.Encode(), 0xFF), 1); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeRow(r.Encode(), 2); err == nil {
		t.Error("short row accepted")
	}
}

func TestQuickRowCodec(t *testing.T) {
	f := func(i int64, fl float64, s1, s2 string) bool {
		r := Row{Int(i), Float(fl), Str(s1), NStr(s2, script.Tamil), Null()}
		got, err := DecodeRow(r.Encode(), len(r))
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Str("a"), Str("b"), -1},
		{Null(), Int(0), -1},
		{Null(), Null(), 0},
		{NStr("a", script.Hindi), NStr("a", script.Tamil), 0}, // tag ignored
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL should be false")
	}
}

func TestCatalogCreatePersistReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("books", Schema{
		{Name: "id", Type: TInt},
		{Name: "author", Type: TNString},
		{Name: "price", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, err := tbl.Insert(Row{Int(int64(i)), NStr("Nehru", script.English), Float(9.95)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.CreateIndex("books_id", "books", "id"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tbl2, ok := d2.Table("books")
	if !ok {
		t.Fatal("table lost on reopen")
	}
	if tbl2.Count() != 100 {
		t.Errorf("count = %d", tbl2.Count())
	}
	if got := tbl2.Columns.String(); got != "id INT, author NSTRING, price FLOAT" {
		t.Errorf("schema = %q", got)
	}
	ix, ok := d2.IndexOn("books", "id")
	if !ok {
		t.Fatal("index lost on reopen")
	}
	rids, err := ix.Tree.Lookup(42)
	if err != nil || len(rids) != 1 {
		t.Errorf("index lookup = %v, %v", rids, err)
	}
	// Language tags survive.
	rows, err := Collect(NewSeqScan(tbl2))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].Lang != script.English {
		t.Errorf("language tag lost: %v", rows[0][1])
	}
}

func TestCatalogValidation(t *testing.T) {
	d := openDB(t)
	if _, err := d.CreateTable("t", nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := d.CreateTable("t", Schema{{Name: "a", Type: TInt}, {Name: "A", Type: TInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := d.CreateTable("ok", Schema{{Name: "a", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("OK", Schema{{Name: "a", Type: TInt}}); err == nil {
		t.Error("case-insensitive duplicate table accepted")
	}
	if _, err := d.CreateIndex("ix", "missing", "a"); err == nil {
		t.Error("index on missing table accepted")
	}
	if _, err := d.CreateIndex("ix", "ok", "missing"); err == nil {
		t.Error("index on missing column accepted")
	}
	tbl, _ := d.Table("ok")
	if _, err := tbl.Insert(Row{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tbl.Insert(Row{Str("x")}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := tbl.Insert(Row{Null()}); err != nil {
		t.Errorf("NULL insert rejected: %v", err)
	}
}

func TestDropTable(t *testing.T) {
	d := openDB(t)
	d.CreateTable("t", Schema{{Name: "a", Type: TInt}})
	d.CreateIndex("t_a", "t", "a")
	if err := d.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Table("t"); ok {
		t.Error("table survives drop")
	}
	if _, ok := d.Index("t_a"); ok {
		t.Error("index survives table drop")
	}
	if err := d.DropTable("t"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	d := openDB(t)
	tbl, _ := d.CreateTable("t", Schema{{Name: "a", Type: TInt}})
	d.CreateIndex("t_a", "t", "a")
	tbl.Insert(Row{Int(7)})
	tbl.Insert(Row{Int(7)})
	ix, _ := d.Index("t_a")
	rids, err := ix.Tree.Lookup(7)
	if err != nil || len(rids) != 2 {
		t.Errorf("index after insert = %v, %v", rids, err)
	}
}

func mkTable(t *testing.T, d *DB) *Table {
	t.Helper()
	tbl, err := d.CreateTable("nums", Schema{
		{Name: "id", Type: TInt},
		{Name: "grp", Type: TInt},
		{Name: "label", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Int(int64(i % 5)), Str(labels[i%5])}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSeqScanAndFilter(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	pred := &Binary{Op: "<", L: &ColRef{Idx: 0}, R: &Const{V: Int(10)}}
	rows, err := Collect(&Filter{Child: NewSeqScan(tbl), Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("filter returned %d rows", len(rows))
	}
	// Reopen semantics: a node can be re-run.
	n := &Filter{Child: NewSeqScan(tbl), Pred: pred}
	r1, _ := Collect(n)
	r2, _ := Collect(n)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("node not re-runnable")
	}
}

func TestProjectAndLimit(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	n := &Limit{
		Child: &Project{
			Child: NewSeqScan(tbl),
			Exprs: []Expr{&ColRef{Idx: 2}, &Binary{Op: "*", L: &ColRef{Idx: 0}, R: &Const{V: Int(2)}}},
			Names: []string{"label", "double"},
		},
		N: 3,
	}
	rows, err := Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[1][1].I != 2 || rows[2][0].S != "gamma" {
		t.Errorf("project/limit rows = %v", rows)
	}
}

func TestIndexScanNode(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	ix, err := d.CreateIndex("nums_grp", "nums", "grp")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewIndexScan(tbl, ix, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("index scan returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 3 {
			t.Errorf("index scan leaked row %v", r)
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	pred := &Binary{Op: "AND",
		L: &Binary{Op: "=", L: &ColRef{Idx: 1}, R: &ColRef{Idx: 4}}, // grp = grp
		R: &Binary{Op: "<", L: &ColRef{Idx: 0}, R: &ColRef{Idx: 3}}, // id < id
	}
	rows, err := Collect(&NestedLoopJoin{Left: NewSeqScan(tbl), Right: NewSeqScan(tbl), Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	// 5 groups of 10 rows: C(10,2) ordered pairs each = 45*5.
	if len(rows) != 225 {
		t.Errorf("NL join rows = %d, want 225", len(rows))
	}
	if len(rows[0]) != 6 {
		t.Errorf("joined row width = %d", len(rows[0]))
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	nl, err := Collect(&NestedLoopJoin{Left: NewSeqScan(tbl), Right: NewSeqScan(tbl),
		Pred: &Binary{Op: "=", L: &ColRef{Idx: 1}, R: &ColRef{Idx: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	hj, err := Collect(&HashJoin{Left: NewSeqScan(tbl), Right: NewSeqScan(tbl), LeftCol: 1, RightCol: 4 - 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hj) != len(nl) {
		t.Errorf("hash join %d rows, NL join %d", len(hj), len(nl))
	}
}

func TestHashJoinResidual(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	rows, err := Collect(&HashJoin{
		Left: NewSeqScan(tbl), Right: NewSeqScan(tbl), LeftCol: 1, RightCol: 1,
		Residual: &Binary{Op: "<>", L: &ColRef{Idx: 0}, R: &ColRef{Idx: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*10*9 {
		t.Errorf("residual join rows = %d, want 450", len(rows))
	}
}

// BenchmarkAblation_JoinStrategy compares a hash join with a nested
// loop on the exact equi-join: a self-join on id of a 400-row names
// table (the paper's 0.2 % of 200k rows) of generated names.
func BenchmarkAblation_JoinStrategy(b *testing.B) {
	op := core.MustNew(core.Options{})
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		b.Fatal(err)
	}
	var texts []core.Text
	for _, e := range dataset.Generate(lex, 400) {
		texts = append(texts, e.Text)
	}
	dir := b.TempDir() + "/db"
	err = BuildAtomic(dir, Options{}, func(d *DB) error {
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
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Collect(&HashJoin{
				Left:     NewSeqScan(cfg.Table),
				Right:    NewSeqScan(cfg.Table),
				LeftCol:  cfg.IDCol,
				RightCol: cfg.IDCol,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nestedloop", func(b *testing.B) {
		pred := &Binary{Op: "=",
			L: &ColRef{Idx: cfg.IDCol},
			R: &ColRef{Idx: len(cfg.Table.Columns) + cfg.IDCol}}
		for i := 0; i < b.N; i++ {
			if _, err := Collect(&NestedLoopJoin{
				Left:  NewSeqScan(cfg.Table),
				Right: NewSeqScan(cfg.Table),
				Pred:  pred,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestGroupByCountHaving(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	g := &GroupBy{
		Child: &Filter{Child: NewSeqScan(tbl), Pred: &Binary{Op: "<", L: &ColRef{Idx: 0}, R: &Const{V: Int(23)}}},
		Keys:  []Expr{&ColRef{Idx: 1}},
		Aggs:  []Aggregate{{Kind: AggCount}, {Kind: AggMax, Arg: &ColRef{Idx: 0}}, {Kind: AggSum, Arg: &ColRef{Idx: 0}}},
	}
	rows, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(rows))
	}
	// Group 0 holds ids 0,5,10,15,20 (5 rows, max 20, sum 50).
	found := false
	for _, r := range rows {
		if r[0].I == 0 {
			found = true
			if r[1].I != 5 || r[2].I != 20 || r[3].I != 50 {
				t.Errorf("group 0 aggregates = %v", r)
			}
		}
	}
	if !found {
		t.Error("group 0 missing")
	}
	// Having.
	g2 := &GroupBy{
		Child:  NewSeqScan(tbl),
		Keys:   []Expr{&ColRef{Idx: 1}},
		Aggs:   []Aggregate{{Kind: AggCount}},
		Having: &Binary{Op: ">", L: &ColRef{Idx: 0}, R: &Const{V: Int(2)}},
	}
	rows2, err := Collect(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Errorf("having groups = %d, want 2 (grp 3 and 4)", len(rows2))
	}
}

func TestSortNode(t *testing.T) {
	d := openDB(t)
	tbl := mkTable(t, d)
	rows, err := Collect(&Sort{Child: NewSeqScan(tbl), By: []Expr{&ColRef{Idx: 0}}, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 49 || rows[len(rows)-1][0].I != 0 {
		t.Errorf("sort desc wrong: first %v last %v", rows[0], rows[len(rows)-1])
	}
}

func TestExpressions(t *testing.T) {
	row := Row{Int(10), Str("abc"), Float(2.5)}
	cases := []struct {
		e    Expr
		want Value
	}{
		{&Binary{Op: "+", L: &ColRef{Idx: 0}, R: &Const{V: Int(5)}}, Int(15)},
		{&Binary{Op: "/", L: &ColRef{Idx: 0}, R: &Const{V: Int(4)}}, Float(2.5)},
		{&Binary{Op: "+", L: &ColRef{Idx: 1}, R: &Const{V: Str("d")}}, Str("abcd")},
		{&Binary{Op: "AND", L: &Const{V: Int(1)}, R: &Const{V: Int(0)}}, Int(0)},
		{&Binary{Op: "OR", L: &Const{V: Int(0)}, R: &Const{V: Int(1)}}, Int(1)},
		{&Not{E: &Const{V: Int(0)}}, Int(1)},
		{&Binary{Op: ">=", L: &ColRef{Idx: 2}, R: &Const{V: Float(2.5)}}, Int(1)},
	}
	for _, c := range cases {
		got, err := c.e.Eval(row)
		if err != nil {
			t.Fatalf("%v: %v", c.e, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v = %v, want %v", c.e, got, c.want)
		}
	}
	// Errors.
	if _, err := (&Binary{Op: "/", L: &Const{V: Int(1)}, R: &Const{V: Int(0)}}).Eval(row); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := (&ColRef{Idx: 9}).Eval(row); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestFuncRegistryBuiltins(t *testing.T) {
	r := NewFuncRegistry()
	for name, check := range map[string]struct {
		args []Value
		want Value
	}{
		"length": {[]Value{Str("नेहरु")}, Int(5)},
		"lower":  {[]Value{Str("ABC")}, Str("abc")},
		"upper":  {[]Value{Str("abc")}, Str("ABC")},
		"abs":    {[]Value{Int(-3)}, Int(3)},
	} {
		fn, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("builtin %s missing", name)
		}
		got, err := fn(check.args)
		if err != nil || !reflect.DeepEqual(got, check.want) {
			t.Errorf("%s(%v) = %v, %v", name, check.args, got, err)
		}
	}
	if _, ok := r.Lookup("nosuch"); ok {
		t.Error("unknown function found")
	}
}

func TestParseType(t *testing.T) {
	for in, want := range map[string]Type{
		"INT": TInt, "integer": TInt, "FLOAT": TFloat, "text": TString,
		"NVARCHAR": TNString, "nchar": TNString,
	} {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
}
