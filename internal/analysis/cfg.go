package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds per-function control-flow graphs over the stdlib
// AST. Blocks hold statements (and branch conditions) in execution
// order; edges carry the branch condition that selects them, which is
// what lets errpath distinguish the `err != nil` arm of an acquisition
// from the success arm. Defer statements stay in the block where they
// are *registered*: an analysis that cares about their at-exit effect
// (errpath, the lock summaries) interprets a reached DeferStmt as
// scheduling work for every subsequent exit on that path, which models
// conditional defers correctly per path.

// Block is one basic block: straight-line code with branching only at
// the end.
type Block struct {
	Index int
	// Nodes are the block's statements and branch-condition expressions
	// in execution order.
	Nodes []ast.Node
	Succs []*Edge
	// Live is reachability from the entry block.
	Live bool
	// What names the block's role for tests and debugging
	// ("if.then", "for.head", ...).
	What string
}

// Edge is one control-flow transfer.
type Edge struct {
	From, To *Block
	// Cond, when non-nil, is the branch condition: the edge is taken
	// when Cond evaluates to !Negate.
	Cond   ast.Expr
	Negate bool
	// Panic marks an edge to the exit block that models an explicit
	// panic/os.Exit rather than a return.
	Panic bool
}

// CFG is one function body's control-flow graph with a single synthetic
// exit block.
type CFG struct {
	Entry, Exit *Block
	Blocks      []*Block
}

// NewCFG builds the control-flow graph of one function body. info may
// be nil (panic detection then falls back to names).
func NewCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{
		cfg:     &CFG{},
		info:    info,
		labeled: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit, nil, false, false)
	}
	b.flushGotos()
	markLive(b.cfg)
	return b.cfg
}

// markLive flags every block reachable from the entry.
func markLive(g *CFG) {
	var visit func(*Block)
	visit = func(blk *Block) {
		if blk.Live {
			return
		}
		blk.Live = true
		for _, e := range blk.Succs {
			visit(e.To)
		}
	}
	visit(g.Entry)
}

type cfgBuilder struct {
	cfg  *CFG
	info *types.Info

	// cur is the block under construction; nil after a terminating
	// statement (return, break, panic) until new code starts.
	cur *Block

	targets *branchTargets
	labeled map[string]*Block
	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so break/continue with that label resolve.
	pendingLabel string
	// fallTarget is the next case body during switch construction.
	fallTarget *Block
	gotos      []pendingGoto
}

// branchTargets is the lexical stack of break/continue destinations.
type branchTargets struct {
	tail       *branchTargets
	label      string
	brk, cont  *Block
	isLoopLike bool
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock(what string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), What: what}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, negate, panics bool) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, &Edge{From: from, To: to, Cond: cond, Negate: negate, Panic: panics})
}

// add appends a node to the current block, opening an unreachable block
// if control cannot get here.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label for the construct that owns it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) push(label string, brk, cont *Block, loop bool) {
	b.targets = &branchTargets{tail: b.targets, label: label, brk: brk, cont: cont, isLoopLike: loop}
}

func (b *cfgBuilder) pop() { b.targets = b.targets.tail }

// findBreak resolves the destination of `break [label]`.
func (b *cfgBuilder) findBreak(label string) *Block {
	for t := b.targets; t != nil; t = t.tail {
		if t.brk == nil {
			continue
		}
		if label == "" || t.label == label {
			return t.brk
		}
	}
	return nil
}

// findContinue resolves the destination of `continue [label]`.
func (b *cfgBuilder) findContinue(label string) *Block {
	for t := b.targets; t != nil; t = t.tail {
		if t.cont == nil || !t.isLoopLike {
			continue
		}
		if label == "" || t.label == label {
			return t.cont
		}
	}
	return nil
}

func (b *cfgBuilder) flushGotos() {
	for _, g := range b.gotos {
		if dst, ok := b.labeled[g.label]; ok {
			b.edge(g.from, dst, nil, false, false)
		}
	}
	b.gotos = nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		b.edge(head, then, s.Cond, false, false)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		after := b.newBlock("if.after")
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(head, els, s.Cond, true, false)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after, nil, false, false)
			}
		} else {
			b.edge(head, after, s.Cond, true, false)
		}
		if thenEnd != nil {
			b.edge(thenEnd, after, nil, false, false)
		}
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.cur, head, nil, false, false)
		after := b.newBlock("for.after")
		body := b.newBlock("for.body")
		var post *Block
		cont := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, body, s.Cond, false, false)
			b.edge(head, after, s.Cond, true, false)
		} else {
			b.edge(head, body, nil, false, false)
		}
		b.push(label, after, cont, true)
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		if b.cur != nil {
			b.edge(b.cur, cont, nil, false, false)
		}
		if post != nil {
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head, nil, false, false)
		}
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		// The range expression is evaluated once, before the first
		// iteration; the head carries no nodes. Placing the whole
		// RangeStmt there would make every call of the body look as if
		// it were also made at the head, on the non-back edge into it.
		b.add(s.X)
		head := b.newBlock("range.head")
		b.edge(b.cur, head, nil, false, false)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edge(head, body, nil, false, false)
		b.edge(head, after, nil, false, false)
		b.push(label, after, head, true)
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		if b.cur != nil {
			b.edge(b.cur, head, nil, false, false)
		}
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock("unreachable")
			b.cur = head
		}
		after := b.newBlock("select.after")
		b.push(label, after, nil, false)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock("select.comm")
			b.edge(head, blk, nil, false, false)
			b.cur = blk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			for _, t := range comm.Body {
				b.stmt(t)
			}
			if b.cur != nil {
				b.edge(b.cur, after, nil, false, false)
			}
		}
		b.pop()
		b.cur = after
	case *ast.LabeledStmt:
		start := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, start, nil, false, false)
		b.labeled[s.Label.Name] = start
		b.cur = start
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.add(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			if dst := b.findBreak(label); dst != nil {
				b.edge(b.cur, dst, nil, false, false)
			}
		case "continue":
			if dst := b.findContinue(label); dst != nil {
				b.edge(b.cur, dst, nil, false, false)
			}
		case "goto":
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		case "fallthrough":
			if b.fallTarget != nil {
				b.edge(b.cur, b.fallTarget, nil, false, false)
			}
		}
		b.cur = nil
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit, nil, false, false)
		b.cur = nil
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.noReturn(call) {
			b.edge(b.cur, b.cfg.Exit, nil, false, true)
			b.cur = nil
		}
	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: straight-line nodes.
		b.add(s)
	}
}

// switchClauses builds the case blocks of a switch or type switch.
// fallthroughOK enables the fallthrough edge (expression switches only).
func (b *cfgBuilder) switchClauses(label string, body *ast.BlockStmt, fallthroughOK bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	after := b.newBlock("switch.after")
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i], nil, false, false)
		if cl.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after, nil, false, false)
	}
	b.push(label, after, nil, false)
	prevFall := b.fallTarget
	for i, cl := range clauses {
		if fallthroughOK && i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.cur = blocks[i]
		for _, e := range cl.List {
			b.add(e)
		}
		for _, t := range cl.Body {
			b.stmt(t)
		}
		if b.cur != nil {
			b.edge(b.cur, after, nil, false, false)
		}
	}
	b.fallTarget = prevFall
	b.pop()
	b.cur = after
}

// noReturn reports whether the call never returns: the panic builtin,
// os.Exit, log.Fatal*, or runtime.Goexit.
func (b *cfgBuilder) noReturn(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "panic" {
			return false
		}
		if b.info != nil {
			_, isBuiltin := b.info.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
		return true
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkgPath := id.Name
		if b.info != nil {
			pn, ok := b.info.Uses[id].(*types.PkgName)
			if !ok {
				return false
			}
			pkgPath = pn.Imported().Path()
		}
		name := fun.Sel.Name
		switch pkgPath {
		case "os":
			return name == "Exit"
		case "log":
			return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
		case "runtime":
			return name == "Goexit"
		}
	}
	return false
}
