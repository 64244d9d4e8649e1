package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"lexequal/internal/analysis"
)

// The CFG tests locate blocks through mark("...") calls placed in the
// source and assert the edges between them, so they pin control-flow
// shape without depending on block numbering.

func buildCFG(t *testing.T, src, fn string) *analysis.CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\nfunc mark(string) {}\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return analysis.NewCFG(fd.Body, nil)
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil
}

// markBlock finds the block containing the call mark(label).
func markBlock(t *testing.T, g *analysis.CFG, label string) *analysis.Block {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "mark" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == `"`+label+`"` {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	t.Fatalf("no block contains mark(%q)", label)
	return nil
}

func hasEdge(from, to *analysis.Block) bool {
	for _, e := range from.Succs {
		if e.To == to {
			return true
		}
	}
	return false
}

// nodeBlock finds the (first) block containing a node of type T.
func nodeBlock[T ast.Node](g *analysis.CFG) (*analysis.Block, T) {
	var zero T
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if t, ok := n.(T); ok {
				return blk, t
			}
		}
	}
	return nil, zero
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	g := buildCFG(t, `
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 5 {
				mark("breaking")
				break outer
			}
			if j == 6 {
				mark("continuing")
				continue outer
			}
			mark("inner")
		}
		mark("outerTail")
	}
	mark("done")
}`, "f")

	breaking := markBlock(t, g, "breaking")
	done := markBlock(t, g, "done")
	if !hasEdge(breaking, done) {
		t.Errorf("break outer should jump straight to the outer loop's after block")
	}
	continuing := markBlock(t, g, "continuing")
	outerTail := markBlock(t, g, "outerTail")
	if hasEdge(continuing, outerTail) {
		t.Errorf("continue outer must skip the outer loop body tail")
	}
	// continue outer targets the outer post block (the one holding i++).
	var post *analysis.Block
	for _, e := range continuing.Succs {
		for _, n := range e.To.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if id, ok := inc.X.(*ast.Ident); ok && id.Name == "i" {
					post = e.To
				}
			}
		}
	}
	if post == nil {
		t.Errorf("continue outer should target the outer loop's post block")
	}
}

// TestCFGRangeHead pins a range loop's nodes: the range expression is
// evaluated once, in the block before the loop, and the head holds
// nothing, so no call of the body is also seen at the head.
func TestCFGRangeHead(t *testing.T) {
	g := buildCFG(t, `
func f() {
	mark("before")
	for _, x := range src(mark("expr")) {
		mark("body")
		use(x)
	}
	mark("done")
}`, "f")

	before, expr := markBlock(t, g, "before"), markBlock(t, g, "expr")
	if before != expr {
		t.Errorf("the range expression is in block %q, want the block before the loop", expr.What)
	}
	body := markBlock(t, g, "body")
	if body.What != "range.body" {
		t.Fatalf("the first block holding the body's call is %q, want range.body", body.What)
	}
	var head *analysis.Block
	for _, e := range before.Succs {
		head = e.To
	}
	if head == nil || head.What != "range.head" {
		t.Fatalf("the block before the loop does not lead to the range head")
	}
	if len(head.Nodes) != 0 {
		t.Errorf("range head holds %d nodes, want none", len(head.Nodes))
	}
	if !hasEdge(head, body) || !hasEdge(body, head) || !hasEdge(head, markBlock(t, g, "done")) {
		t.Errorf("range loop edges: head→body %v, body→head %v, head→after %v",
			hasEdge(head, body), hasEdge(body, head), hasEdge(head, markBlock(t, g, "done")))
	}
}

func TestCFGSelect(t *testing.T) {
	g := buildCFG(t, `
func f(c, d chan int) {
	mark("head")
	select {
	case <-c:
		mark("a")
	case v := <-d:
		_ = v
		mark("b")
	}
	mark("after")
}`, "f")

	head := markBlock(t, g, "head")
	a := markBlock(t, g, "a")
	b := markBlock(t, g, "b")
	after := markBlock(t, g, "after")
	if !hasEdge(head, a) || !hasEdge(head, b) {
		t.Errorf("select head must branch to every comm clause")
	}
	if !hasEdge(a, after) || !hasEdge(b, after) {
		t.Errorf("every comm clause must rejoin after the select")
	}
	if hasEdge(head, after) {
		t.Errorf("a select with no default blocks; there is no head→after edge")
	}
}

func TestCFGPanicEdge(t *testing.T) {
	g := buildCFG(t, `
func f(x int) {
	if x == 0 {
		mark("doomed")
		panic("boom")
	}
	mark("ok")
}`, "f")

	doomed := markBlock(t, g, "doomed")
	var toExit *analysis.Edge
	for _, e := range doomed.Succs {
		if e.To == g.Exit {
			toExit = e
		}
	}
	if toExit == nil {
		t.Fatalf("panic block must edge to the exit block")
	}
	if !toExit.Panic {
		t.Errorf("the exit edge of a panic must be marked Panic")
	}
	ok := markBlock(t, g, "ok")
	if hasEdge(doomed, ok) {
		t.Errorf("control cannot continue past panic")
	}
	for _, e := range ok.Succs {
		if e.To == g.Exit && e.Panic {
			t.Errorf("a plain return edge must not be marked Panic")
		}
	}
}

func TestCFGDeferStaysAtRegistration(t *testing.T) {
	g := buildCFG(t, `
func f(x bool) {
	if x {
		mark("then")
		defer mark("cleanup")
	}
	mark("tail")
}`, "f")

	blk, d := nodeBlock[*ast.DeferStmt](g)
	if blk == nil {
		t.Fatalf("DeferStmt must appear as a node in its registration block")
	}
	_ = d
	then := markBlock(t, g, "then")
	if blk != then {
		t.Errorf("a conditional defer must live in the branch that registers it, got block %d (%s)", blk.Index, blk.What)
	}
	if len(g.Exit.Nodes) != 0 {
		t.Errorf("the synthetic exit block holds no statements")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(t, `
func f(x int) {
	switch x {
	case 0:
		mark("zero")
		fallthrough
	case 1:
		mark("one")
	}
	mark("after")
}`, "f")

	zero := markBlock(t, g, "zero")
	one := markBlock(t, g, "one")
	after := markBlock(t, g, "after")
	if !hasEdge(zero, one) {
		t.Errorf("fallthrough must edge into the next case body")
	}
	if hasEdge(zero, after) {
		t.Errorf("a case ending in fallthrough does not break to after")
	}
	if !hasEdge(one, after) {
		t.Errorf("the last case breaks to after")
	}
	headHasAfter := false
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.To == after && blk != one && blk != zero {
				headHasAfter = true
			}
		}
	}
	if !headHasAfter {
		t.Errorf("a switch without default needs a head→after edge")
	}
}

func TestCFGErrGatedEdges(t *testing.T) {
	g := buildCFG(t, `
func f() error {
	err := work()
	if err != nil {
		mark("fail")
		return err
	}
	mark("okpath")
	return nil
}
func work() error { return nil }`, "f")

	fail := markBlock(t, g, "fail")
	okpath := markBlock(t, g, "okpath")
	var failEdge, okEdge *analysis.Edge
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.To == fail {
				failEdge = e
			}
			if e.To == okpath {
				okEdge = e
			}
		}
	}
	if failEdge == nil || failEdge.Cond == nil || failEdge.Negate {
		t.Errorf("the error arm must carry the branch condition un-negated")
	}
	if okEdge == nil || okEdge.Cond == nil || !okEdge.Negate {
		t.Errorf("the success arm must carry the negated branch condition")
	}
}
