package sql

import (
	"fmt"
	"strings"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/script"
)

// binding maps a FROM-clause table into the combined row.
type binding struct {
	name   string // binding name (alias or table name), lowercase
	table  *db.Table
	offset int // column offset in the combined row
}

// scope resolves identifiers against a set of bindings.
type scope struct {
	bindings []binding
	width    int
}

func newScope(s *Session, from []TableRef) (*scope, error) {
	sc := &scope{}
	seen := map[string]bool{}
	for _, ref := range from {
		t, ok := s.DB.Table(ref.Name)
		if !ok {
			return nil, fmt.Errorf("sql: no table %q", ref.Name)
		}
		b := strings.ToLower(ref.Binding())
		if seen[b] {
			return nil, fmt.Errorf("sql: duplicate table binding %q", ref.Binding())
		}
		seen[b] = true
		sc.bindings = append(sc.bindings, binding{name: b, table: t, offset: sc.width})
		sc.width += len(t.Columns)
	}
	return sc, nil
}

// lookup resolves qualifier.name to a combined-row index and its column.
func (sc *scope) lookup(qualifier, name string) (int, db.Column, error) {
	q := strings.ToLower(qualifier)
	found := -1
	var col db.Column
	for _, b := range sc.bindings {
		if q != "" && b.name != q {
			continue
		}
		ci := b.table.Columns.ColIndex(name)
		if ci < 0 {
			continue
		}
		if found >= 0 {
			return 0, col, fmt.Errorf("sql: ambiguous column %q", name)
		}
		found = b.offset + ci
		col = b.table.Columns[ci]
	}
	if found < 0 {
		if q != "" {
			return 0, col, fmt.Errorf("sql: no column %s.%s", qualifier, name)
		}
		return 0, col, fmt.Errorf("sql: no column %q", name)
	}
	return found, col, nil
}

// columns returns the combined schema, qualifying names when more than
// one table is bound.
func (sc *scope) columns() db.Schema {
	var out db.Schema
	for _, b := range sc.bindings {
		for _, c := range b.table.Columns {
			name := c.Name
			if len(sc.bindings) > 1 {
				name = b.name + "." + c.Name
			}
			out = append(out, db.Column{Name: name, Type: c.Type})
		}
	}
	return out
}

// resolve lowers an AST expression to an executable db.Expr.
func (s *Session) resolve(sc *scope, n Node) (db.Expr, error) {
	switch e := n.(type) {
	case *Ident:
		idx, _, err := sc.lookup(e.Qualifier, e.Name)
		if err != nil {
			return nil, err
		}
		return &db.ColRef{Idx: idx, Name: e.String()}, nil
	case *Lit:
		return &db.Const{V: s.litValue(e)}, nil
	case *Bin:
		l, err := s.resolve(sc, e.L)
		if err != nil {
			return nil, err
		}
		r, err := s.resolve(sc, e.R)
		if err != nil {
			return nil, err
		}
		return &db.Binary{Op: e.Op, L: l, R: r}, nil
	case *NotNode:
		inner, err := s.resolve(sc, e.E)
		if err != nil {
			return nil, err
		}
		return &db.Not{E: inner}, nil
	case *FuncCall:
		if isAggregate(e.Name) {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", e.Name)
		}
		fn, ok := s.Funcs.Lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown function %q", e.Name)
		}
		args := make([]db.Expr, len(e.Args))
		for i, a := range e.Args {
			arg, err := s.resolve(sc, a)
			if err != nil {
				return nil, err
			}
			args[i] = arg
		}
		return &db.Call{Name: e.Name, Fn: fn, Args: args}, nil
	case *LexMatch:
		// Generic (predicate) form: evaluated per row via the operator.
		l, err := s.resolve(sc, e.L)
		if err != nil {
			return nil, err
		}
		r, err := s.resolve(sc, e.R)
		if err != nil {
			return nil, err
		}
		langs, err := s.langSet(e.Langs)
		if err != nil {
			return nil, err
		}
		thr := e.Threshold
		if thr < 0 {
			thr = s.Threshold
		}
		// INLANGUAGES restricts the target (data) side, never a query
		// constant: the Figure 3 query names the search string in one
		// language and the match languages separately.
		_, lIsLit := e.L.(*Lit)
		_, rIsLit := e.R.(*Lit)
		op := s.Op
		desc := e.String()
		return &db.FuncExpr{Desc: desc, F: func(row db.Row) (db.Value, error) {
			lv, err := l.Eval(row)
			if err != nil {
				return db.Null(), err
			}
			rv, err := r.Eval(row)
			if err != nil {
				return db.Null(), err
			}
			lt, err := asText(lv)
			if err != nil {
				return db.Null(), err
			}
			rt, err := asText(rv)
			if err != nil {
				return db.Null(), err
			}
			if (!lIsLit && !langs.Contains(lt.Lang)) || (!rIsLit && !langs.Contains(rt.Lang)) {
				return db.Int(0), nil
			}
			res, err := op.Match(lt, rt, thr)
			if err != nil {
				return db.Null(), err
			}
			if res == core.True {
				return db.Int(1), nil
			}
			return db.Int(0), nil
		}}, nil
	default:
		return nil, fmt.Errorf("sql: cannot resolve %T", n)
	}
}

// litValue converts a literal AST node to a db.Value. String literals
// become language-tagged NStrings: the LANG tag wins, otherwise the
// script detector assigns the default language of the dominant script
// (the paper's footnote-1 model of tagged text, with §2.1's block-based
// guessing for untagged query constants).
func (s *Session) litValue(l *Lit) db.Value {
	switch l.Kind {
	case LitNull:
		return db.Null()
	case LitInt:
		return db.Int(l.I)
	case LitFloat:
		return db.Float(l.N)
	default:
		if l.Lang != "" {
			if lang, err := script.ParseLanguage(l.Lang); err == nil {
				return db.NStr(l.S, lang)
			}
		}
		return db.NStr(l.S, script.GuessLanguage(l.S))
	}
}

// asText coerces an NString value into a core.Text.
func asText(v db.Value) (core.Text, error) {
	if v.T != db.TNString {
		return core.Text{}, fmt.Errorf("sql: LEXEQUAL operand is %v, want a language-tagged string", v.T)
	}
	return core.Text{Value: v.S, Lang: v.Lang}, nil
}

// langSet parses an INLANGUAGES list.
func (s *Session) langSet(names []string) (core.LangSet, error) {
	if len(names) == 0 {
		return nil, nil
	}
	langs := make([]script.Language, 0, len(names))
	for _, n := range names {
		l, err := script.ParseLanguage(n)
		if err != nil {
			return nil, err
		}
		langs = append(langs, l)
	}
	return core.NewLangSet(langs...), nil
}

// conjuncts flattens a WHERE tree into AND-ed terms.
func conjuncts(n Node) []Node {
	if b, ok := n.(*Bin); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if n == nil {
		return nil
	}
	return []Node{n}
}

func isAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "MIN", "MAX", "SUM":
		return true
	}
	return false
}

// planInfo carries EXPLAIN information.
type planInfo struct {
	strategy    string
	shape       string
	parallelism int
	kernel      string
}

// configureLex applies the session execution knobs to a resolved
// LexConfig and notes them for EXPLAIN. The parallelism shown is the
// pool width the plan runs at (SET parallelism = 0 resolves to
// GOMAXPROCS); the kernel shown is the model-level resolution (a
// pattern longer than one machine word still falls back to scalar per
// query at runtime).
func (s *Session) configureLex(cfg *db.LexConfig, info *planInfo) {
	cfg.Workers = s.Parallelism
	cfg.Counters = &s.Pipeline
	cfg.Kernel = s.Kernel
	cfg.Snap = s.snap
	info.parallelism = core.ResolveWorkers(s.Parallelism)
	info.kernel = s.Op.ResolveKernel(s.Kernel).String()
}

// planSelect lowers a SELECT into an executor tree.
func (s *Session) planSelect(sel *SelectStmt) (db.Node, []string, *planInfo, error) {
	sc, err := newScope(s, sel.From)
	if err != nil {
		return nil, nil, nil, err
	}
	info := &planInfo{strategy: "generic", parallelism: 1}

	// Build the base relation (scans + joins + where), recognizing the
	// LexEQUAL plan patterns.
	base, residual, err := s.planBase(sc, sel, info)
	if err != nil {
		return nil, nil, nil, err
	}
	if residual != nil {
		pred, err := s.resolve(sc, residual)
		if err != nil {
			return nil, nil, nil, err
		}
		base = &db.Filter{Child: base, Pred: pred}
	}

	if len(sel.GroupBy) > 0 || hasAggregates(sel) {
		return s.planAggregate(sc, sel, base, info)
	}

	// Non-aggregate: ORDER BY resolves against the base relation, then
	// projection, then LIMIT.
	if len(sel.OrderBy) > 0 {
		by := make([]db.Expr, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			e, err := s.resolve(sc, o)
			if err != nil {
				return nil, nil, nil, err
			}
			by[i] = e
		}
		base = &db.Sort{Child: base, By: by, Desc: sel.Desc}
	}
	node, names, err := s.planProjection(sc, sel, base)
	if err != nil {
		return nil, nil, nil, err
	}
	if sel.Limit >= 0 {
		node = &db.Limit{Child: node, N: sel.Limit}
	}
	return node, names, info, nil
}

// planBase plans FROM+WHERE, extracting a LexEQUAL pattern when
// possible; it returns the remaining (unconsumed) WHERE conjuncts as a
// single AST node (or nil).
func (s *Session) planBase(sc *scope, sel *SelectStmt, info *planInfo) (db.Node, Node, error) {
	terms := conjuncts(sel.Where)

	// Find a LexMatch conjunct.
	lexIdx := -1
	var lex *LexMatch
	for i, t := range terms {
		if m, ok := t.(*LexMatch); ok {
			lexIdx = i
			lex = m
			break
		}
	}

	rest := func(exclude ...int) Node {
		skip := map[int]bool{}
		for _, i := range exclude {
			skip[i] = true
		}
		var out Node
		for i, t := range terms {
			if skip[i] {
				continue
			}
			if out == nil {
				out = t
			} else {
				out = &Bin{Op: "AND", L: out, R: t}
			}
		}
		return out
	}

	switch len(sc.bindings) {
	case 1:
		b := sc.bindings[0]
		if lex != nil {
			// Selection pattern: column LEXEQUAL literal (either side).
			col, lit := lexSelArgs(lex)
			if col != nil && lit != nil {
				cfg, cfgErr := db.ResolveLexConfig(s.DB, b.table.Name, s.Op)
				if cfgErr == nil && s.matchesNameCol(sc, col, cfg) {
					langs, err := s.langSet(lex.Langs)
					if err != nil {
						return nil, nil, err
					}
					thr := lex.Threshold
					if thr < 0 {
						thr = s.Threshold
					}
					query := s.litValue(lit)
					qt, err := asText(query)
					if err != nil {
						return nil, nil, err
					}
					s.configureLex(cfg, info)
					node, strat := s.lexScan(cfg, qt, thr, langs)
					info.strategy = strat
					info.shape = fmt.Sprintf("lexequal-scan(%s) on %s", strat, b.table.Name)
					return node, rest(lexIdx), nil
				}
			}
			// Fall through: generic predicate filter handles it.
		}
		info.shape = "seqscan " + b.table.Name
		return db.NewSeqScanSnap(b.table, s.snap), rest(), nil

	case 2:
		if lex != nil {
			lcol, lok := lex.L.(*Ident)
			rcol, rok := lex.R.(*Ident)
			if lok && rok {
				li, _, lerr := sc.lookup(lcol.Qualifier, lcol.Name)
				ri, _, rerr := sc.lookup(rcol.Qualifier, rcol.Name)
				if lerr == nil && rerr == nil {
					lb := sc.bindingOf(li)
					rb := sc.bindingOf(ri)
					if lb != rb {
						leftCfg, err1 := db.ResolveLexConfig(s.DB, sc.bindings[lb].table.Name, s.Op)
						rightCfg, err2 := db.ResolveLexConfig(s.DB, sc.bindings[rb].table.Name, s.Op)
						if err1 == nil && err2 == nil &&
							s.matchesNameColAt(sc, li, leftCfg, lb) && s.matchesNameColAt(sc, ri, rightCfg, rb) {
							thr := lex.Threshold
							if thr < 0 {
								thr = s.Threshold
							}
							s.configureLex(leftCfg, info)
							s.configureLex(rightCfg, info)
							// EXPLAIN must report the kernel the join
							// actually verifies with: a cross-model join is
							// forced onto the scalar kernel whatever the
							// session knob says.
							if k, reason := db.JoinKernel(leftCfg, rightCfg); reason != "" {
								info.kernel = k.String() + " (" + reason + ")"
							}
							node := db.NewLexJoin(leftCfg, rightCfg, thr, false, s.Strategy)
							if lb > rb {
								// Output layout is left++right in FROM
								// order; NewLexJoin emits (leftCfg,
								// rightCfg). Swap to FROM order via a
								// projection-free reorder node.
								node = reorderNode(node, len(rightCfg.Table.Columns), len(leftCfg.Table.Columns))
							}
							info.strategy = s.Strategy.String()
							info.shape = fmt.Sprintf("lexequal-join(%s) %s x %s", s.Strategy, sc.bindings[0].table.Name, sc.bindings[1].table.Name)
							return node, rest(lexIdx), nil
						}
					}
				}
			}
		}
		// Generic: try a hash join on an equality conjunct.
		for i, t := range terms {
			b, ok := t.(*Bin)
			if !ok || b.Op != "=" {
				continue
			}
			le, lok := b.L.(*Ident)
			re, rok := b.R.(*Ident)
			if !lok || !rok {
				continue
			}
			li, _, lerr := sc.lookup(le.Qualifier, le.Name)
			ri, _, rerr := sc.lookup(re.Qualifier, re.Name)
			if lerr != nil || rerr != nil || sc.bindingOf(li) == sc.bindingOf(ri) {
				continue
			}
			if sc.bindingOf(li) == 1 {
				li, ri = ri, li
			}
			info.shape = "hashjoin"
			node := &db.HashJoin{
				Left:     db.NewSeqScanSnap(sc.bindings[0].table, s.snap),
				Right:    db.NewSeqScanSnap(sc.bindings[1].table, s.snap),
				LeftCol:  li,
				RightCol: ri - sc.bindings[1].offset,
			}
			return node, rest(i), nil
		}
		info.shape = "nestedloop"
		node := &db.NestedLoopJoin{
			Left:  db.NewSeqScanSnap(sc.bindings[0].table, s.snap),
			Right: db.NewSeqScanSnap(sc.bindings[1].table, s.snap),
		}
		return node, rest(), nil

	default:
		return nil, nil, fmt.Errorf("sql: FROM supports at most 2 tables (got %d)", len(sc.bindings))
	}
}

// lexScan picks the physical scan per the session strategy, falling
// back to naive when structures are missing — for q-gram, also when the
// gram index was built under another cluster set than the session's
// (ResolveLexConfig then leaves CoverIndex nil).
func (s *Session) lexScan(cfg *db.LexConfig, query core.Text, thr float64, langs core.LangSet) (db.Node, string) {
	switch s.Strategy {
	case core.QGram:
		if cfg.CoverIndex != nil {
			return db.NewLexScanQGram(cfg, query, thr, langs), "qgram"
		}
	case core.Indexed:
		if cfg.GroupIndex != nil {
			return db.NewLexScanIndexed(cfg, query, thr, langs), "indexed"
		}
	}
	return db.NewLexScanNaive(cfg, query, thr, langs), "naive"
}

// lexSelArgs decomposes a selection-form LexMatch into (column,
// literal) regardless of operand order.
func lexSelArgs(m *LexMatch) (*Ident, *Lit) {
	if c, ok := m.L.(*Ident); ok {
		if l, ok := m.R.(*Lit); ok && l.Kind == LitString {
			return c, l
		}
	}
	if c, ok := m.R.(*Ident); ok {
		if l, ok := m.L.(*Lit); ok && l.Kind == LitString {
			return c, l
		}
	}
	return nil, nil
}

// matchesNameCol reports whether ident resolves to cfg's name column.
func (s *Session) matchesNameCol(sc *scope, ident *Ident, cfg *db.LexConfig) bool {
	idx, _, err := sc.lookup(ident.Qualifier, ident.Name)
	return err == nil && idx == cfg.NameCol
}

// matchesNameColAt is matchesNameCol for multi-table scopes.
func (s *Session) matchesNameColAt(sc *scope, idx int, cfg *db.LexConfig, b int) bool {
	return idx-sc.bindings[b].offset == cfg.NameCol
}

// bindingOf returns which binding a combined-row index belongs to.
func (sc *scope) bindingOf(idx int) int {
	for i := len(sc.bindings) - 1; i >= 0; i-- {
		if idx >= sc.bindings[i].offset {
			return i
		}
	}
	return 0
}

// reorderNode swaps a (B ++ A) row into (A ++ B) order.
func reorderNode(child db.Node, widthB, widthA int) db.Node {
	exprs := make([]db.Expr, 0, widthA+widthB)
	for i := 0; i < widthA; i++ {
		exprs = append(exprs, &db.ColRef{Idx: widthB + i})
	}
	for i := 0; i < widthB; i++ {
		exprs = append(exprs, &db.ColRef{Idx: i})
	}
	return &db.Project{Child: child, Exprs: exprs}
}

// planProjection lowers the select list over the base relation.
func (s *Session) planProjection(sc *scope, sel *SelectStmt, base db.Node) (db.Node, []string, error) {
	var exprs []db.Expr
	var names []string
	for _, item := range sel.Items {
		if item.Star {
			for i, c := range sc.columns() {
				exprs = append(exprs, &db.ColRef{Idx: i, Name: c.Name})
				names = append(names, c.Name)
			}
			continue
		}
		e, err := s.resolve(sc, item.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		if item.Alias != "" {
			names = append(names, item.Alias)
		} else {
			names = append(names, item.Expr.String())
		}
	}
	return &db.Project{Child: base, Exprs: exprs, Names: names}, names, nil
}

// hasAggregates reports whether any select item or HAVING uses an
// aggregate function.
func hasAggregates(sel *SelectStmt) bool {
	check := func(n Node) bool { return containsAggregate(n) }
	for _, item := range sel.Items {
		if !item.Star && check(item.Expr) {
			return true
		}
	}
	return sel.Having != nil && check(sel.Having)
}

func containsAggregate(n Node) bool {
	switch e := n.(type) {
	case *FuncCall:
		if isAggregate(e.Name) {
			return true
		}
		for _, a := range e.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *Bin:
		return containsAggregate(e.L) || containsAggregate(e.R)
	case *NotNode:
		return containsAggregate(e.E)
	case *LexMatch:
		return containsAggregate(e.L) || containsAggregate(e.R)
	}
	return false
}

// planAggregate plans GROUP BY / HAVING / aggregate select lists.
//
// The GroupBy output row is [keys..., aggs...]; select items and HAVING
// are rewritten against that layout: group-key expressions match by
// their printed form, aggregate calls match by normalized name+arg.
func (s *Session) planAggregate(sc *scope, sel *SelectStmt, base db.Node, info *planInfo) (db.Node, []string, *planInfo, error) {
	keys := make([]db.Expr, len(sel.GroupBy))
	keyRepr := make([]string, len(sel.GroupBy))
	for i, k := range sel.GroupBy {
		e, err := s.resolve(sc, k)
		if err != nil {
			return nil, nil, nil, err
		}
		keys[i] = e
		keyRepr[i] = k.String()
	}

	// Collect aggregates from the select list and HAVING.
	var aggs []db.Aggregate
	var aggRepr []string
	addAgg := func(f *FuncCall) (int, error) {
		repr := f.String()
		for i, r := range aggRepr {
			if r == repr {
				return i, nil
			}
		}
		var agg db.Aggregate
		switch strings.ToUpper(f.Name) {
		case "COUNT":
			agg = db.Aggregate{Kind: db.AggCount}
		case "MIN", "MAX", "SUM":
			if len(f.Args) != 1 {
				return 0, fmt.Errorf("sql: %s expects one argument", f.Name)
			}
			arg, err := s.resolve(sc, f.Args[0])
			if err != nil {
				return 0, err
			}
			kind := map[string]db.AggKind{"MIN": db.AggMin, "MAX": db.AggMax, "SUM": db.AggSum}[strings.ToUpper(f.Name)]
			agg = db.Aggregate{Kind: kind, Arg: arg}
		default:
			return 0, fmt.Errorf("sql: unknown aggregate %q", f.Name)
		}
		aggs = append(aggs, agg)
		aggRepr = append(aggRepr, repr)
		return len(aggs) - 1, nil
	}

	// rewrite maps a post-aggregation AST node onto the GroupBy output.
	var rewrite func(n Node) (db.Expr, error)
	rewrite = func(n Node) (db.Expr, error) {
		repr := n.String()
		for i, r := range keyRepr {
			if r == repr {
				return &db.ColRef{Idx: i, Name: repr}, nil
			}
		}
		switch e := n.(type) {
		case *FuncCall:
			if isAggregate(e.Name) {
				i, err := addAgg(e)
				if err != nil {
					return nil, err
				}
				return &db.ColRef{Idx: len(keys) + i, Name: e.String()}, nil
			}
			fn, ok := s.Funcs.Lookup(e.Name)
			if !ok {
				return nil, fmt.Errorf("sql: unknown function %q", e.Name)
			}
			args := make([]db.Expr, len(e.Args))
			for i, a := range e.Args {
				arg, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				args[i] = arg
			}
			return &db.Call{Name: e.Name, Fn: fn, Args: args}, nil
		case *Bin:
			l, err := rewrite(e.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(e.R)
			if err != nil {
				return nil, err
			}
			return &db.Binary{Op: e.Op, L: l, R: r}, nil
		case *NotNode:
			inner, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			return &db.Not{E: inner}, nil
		case *Lit:
			return &db.Const{V: s.litValue(e)}, nil
		case *Ident:
			return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", e)
		default:
			return nil, fmt.Errorf("sql: cannot use %T after aggregation", n)
		}
	}

	var outExprs []db.Expr
	var names []string
	for _, item := range sel.Items {
		if item.Star {
			return nil, nil, nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
		}
		e, err := rewrite(item.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outExprs = append(outExprs, e)
		if item.Alias != "" {
			names = append(names, item.Alias)
		} else {
			names = append(names, item.Expr.String())
		}
	}
	var having db.Expr
	if sel.Having != nil {
		h, err := rewrite(sel.Having)
		if err != nil {
			return nil, nil, nil, err
		}
		having = h
	}
	var node db.Node = &db.GroupBy{Child: base, Keys: keys, Aggs: aggs, Having: having}
	if len(sel.OrderBy) > 0 {
		by := make([]db.Expr, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			e, err := rewrite(o)
			if err != nil {
				return nil, nil, nil, err
			}
			by[i] = e
		}
		node = &db.Sort{Child: node, By: by, Desc: sel.Desc}
	}
	node = &db.Project{Child: node, Exprs: outExprs, Names: names}
	if sel.Limit >= 0 {
		node = &db.Limit{Child: node, N: sel.Limit}
	}
	info.shape += "+aggregate"
	return node, names, info, nil
}
