package sql

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/script"
)

func loadNames(t *testing.T, s *Session) {
	t.Helper()
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "Nero", Lang: script.English},
		{Value: "Gandhi", Lang: script.English},
		{Value: "गांधी", Lang: script.Hindi},
		{Value: "Kathy", Lang: script.English},
		{Value: "Cathy", Lang: script.English},
	}
	if _, err := db.CreateNameTable(s.DB, "names", s.Op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSetParallelism(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `SET parallelism = 4`)
	if s.Parallelism != 4 {
		t.Errorf("Parallelism = %d, want 4", s.Parallelism)
	}
	mustExec(t, s, `SET parallelism = 0`) // 0 = GOMAXPROCS
	if s.Parallelism != 0 {
		t.Errorf("Parallelism = %d, want 0", s.Parallelism)
	}
	for _, bad := range []string{`SET parallelism = -1`, `SET parallelism = two`, `SET parallelism = 1.5`} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestParallelQueriesIdentical runs the same selection and join at
// several parallelism settings under every strategy; rows must be
// byte-identical to the serial run.
func TestParallelQueriesIdentical(t *testing.T) {
	s := newTestSession(t)
	loadNames(t, s)
	sel := `SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30`
	join := `select N1.id, N2.id from names N1, names N2
		where N1.name LexEQUAL N2.name Threshold 0.30
		and language(N1.name) <> language(N2.name)`
	for _, strat := range []string{"naive", "qgram", "indexed"} {
		mustExec(t, s, `SET lexequal_strategy = `+strat)
		mustExec(t, s, `SET parallelism = 1`)
		baseSel := mustExec(t, s, sel)
		baseJoin := mustExec(t, s, join)
		for _, w := range []string{"2", "4", "0"} {
			mustExec(t, s, `SET parallelism = `+w)
			if got := mustExec(t, s, sel); !reflect.DeepEqual(got.Rows, baseSel.Rows) {
				t.Errorf("%s select at parallelism %s diverges: %v vs %v", strat, w, got.Rows, baseSel.Rows)
			}
			if got := mustExec(t, s, join); !reflect.DeepEqual(got.Rows, baseJoin.Rows) {
				t.Errorf("%s join at parallelism %s diverges", strat, w)
			}
		}
	}
}

func TestExplainShowsParallelism(t *testing.T) {
	s := newTestSession(t)
	loadNames(t, s)
	q := `EXPLAIN SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30`
	exp := mustExec(t, s, q)
	if strings.Contains(exp.Rows[0][0].S, "parallelism") {
		t.Errorf("serial EXPLAIN mentions parallelism: %v", exp.Rows[0][0].S)
	}
	mustExec(t, s, `SET parallelism = 4`)
	exp = mustExec(t, s, q)
	if !strings.Contains(exp.Rows[0][0].S, "[parallelism: 4]") {
		t.Errorf("EXPLAIN = %v", exp.Rows[0][0].S)
	}
}

// TestParallelismZeroIsGOMAXPROCS pins SET parallelism = 0 to what the
// docs say: the plan runs GOMAXPROCS wide (core resolves the width; that
// its verification loop then uses that many lanes is core's
// TestVerifyWidthZeroIsGOMAXPROCS), EXPLAIN prints the width the plan
// uses rather than the setting, and the rows do not change.
func TestParallelismZeroIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := newTestSession(t)
	loadNames(t, s)
	sel := `SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30`
	join := `select N1.id, N2.id from names N1, names N2 where N1.name LexEQUAL N2.name Threshold 0.30`
	for _, strat := range []string{"naive", "qgram", "indexed"} {
		mustExec(t, s, `SET lexequal_strategy = `+strat)
		mustExec(t, s, `SET parallelism = 1`)
		serialSel, serialJoin := mustExec(t, s, sel), mustExec(t, s, join)
		mustExec(t, s, `SET parallelism = 0`)
		for _, q := range []string{sel, join} {
			if plan := mustExec(t, s, `EXPLAIN `+q).Rows[0][0].S; !strings.Contains(plan, "[parallelism: 3]") {
				t.Errorf("%s: EXPLAIN at parallelism 0 under GOMAXPROCS 3 = %q", strat, plan)
			}
		}
		if got := mustExec(t, s, sel); !reflect.DeepEqual(got.Rows, serialSel.Rows) {
			t.Errorf("%s select at parallelism 0 diverges from serial", strat)
		}
		if got := mustExec(t, s, join); !reflect.DeepEqual(got.Rows, serialJoin.Rows) {
			t.Errorf("%s join at parallelism 0 diverges from serial", strat)
		}
	}
}

func TestShowLexStats(t *testing.T) {
	s := newTestSession(t)
	loadNames(t, s)
	stats := func() map[string]int64 {
		res := mustExec(t, s, `SHOW LEXSTATS`)
		if !reflect.DeepEqual(res.Cols, []string{"counter", "value"}) {
			t.Fatalf("cols = %v", res.Cols)
		}
		out := map[string]int64{}
		for _, r := range res.Rows {
			out[r[0].S] = r[1].I
		}
		return out
	}
	before := stats()
	if before["queries"] != 0 {
		t.Errorf("fresh session has counters: %v", before)
	}
	mustExec(t, s, `SET lexequal_strategy = qgram`)
	mustExec(t, s, `SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30`)
	after := stats()
	if after["queries"] != 1 || after["rows_probed"] == 0 || after["dp_cells"] == 0 {
		t.Errorf("counters after a qgram query: %v", after)
	}
	if after["matches"] == 0 {
		t.Errorf("query found matches but matches counter is %d", after["matches"])
	}
	// Counters accumulate across queries.
	mustExec(t, s, `SELECT id FROM names WHERE name LEXEQUAL 'Gandhi' THRESHOLD 0.30`)
	if s2 := stats(); s2["queries"] != 2 || s2["dp_cells"] <= after["dp_cells"] {
		t.Errorf("counters did not accumulate: %v", s2)
	}
}
