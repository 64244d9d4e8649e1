package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrPath is the path-sensitive resource-balance analyzer. For every
// acquisition of an engine resource — a page pinned by Pager.Get or
// Pager.Allocate, a mutex lock, a transaction opened by DB.BeginTx,
// an MVCC snapshot from DB.AcquireSnap (a leaked snapshot
// pins the version-GC horizon forever), a WAL stream reader from
// Log.NewStreamReader (abandoned readers leak the tail-segment handle
// replication holds open) — it
// walks the function's CFG and proves the resource is released,
// deferred, or visibly handed off on *every* path to the exit,
// including early error returns. It subsumes the old pinbalance
// analyzer (whose discarded-result checks it keeps) and upgrades its
// per-function heuristic to a per-path proof.
//
// The analysis is error-aware: after `p, err := pg.Get(id)`, the edge
// guarded by `err != nil` carries no obligation (a failed acquisition
// pins nothing), and the obligation on the success edge becomes
// unconditional. Reassigning err before it is checked re-arms the
// obligation.
//
// Handing a resource to a callee only discharges the obligation when
// the callee might keep or release it. Callees that merely *read* a
// pointer parameter (the heap's pageSlots/slotRecord helpers) are
// recognized by an interprocedural borrow inference, so a page lent to
// a reader still needs its Unpin.
//
// Locks are checked only when the function contains at least one
// matching unlock — functions like Session.lockShared exist to hand a
// held lock to their caller — and functions whose name ends in
// "Locked" are exempt entirely, as their contract is to run (or end)
// with the lock held.
var ErrPath = &Analyzer{
	Name: "errpath",
	Doc: "prove every pin, lock, and transaction is released on every " +
		"CFG path, including early error returns",
	RunProgram: runErrPath,
}

// resKind separates the tracked resource classes.
type resKind int

const (
	resPin resKind = iota
	resLock
	resTxn
	resSnap
	resStream
)

// resLevel is the per-path obligation state: levels join by max.
type resLevel int

const (
	levelBot  resLevel = iota // unreached
	levelNone                 // released, escaped, or failed acquisition
	levelCond                 // acquired, success not yet established
	levelHeld                 // acquired on this path; release required
)

// resSite is one acquisition whose balance is being proven.
type resSite struct {
	kind   resKind
	node   ast.Node     // the acquiring statement as it appears in Block.Nodes
	obj    types.Object // pin/txn result variable
	errObj types.Object // error result variable, if bound
	lock   LockID       // lock sites
	mode   modeBits
	method string // "Get", "Allocate", "BeginTx", "Lock", "RLock"
	block  int
	pos    token.Pos
}

func (s *resSite) initLevel() resLevel {
	if s.errObj != nil {
		return levelCond
	}
	return levelHeld
}

func runErrPath(pass *ProgramPass) error {
	cg := pass.Prog.CallGraph()
	borrows := computeParamBorrows(cg)
	for _, id := range cg.Order {
		fn := cg.Funcs[id]
		ef := &errpathFunc{
			fn:       fn,
			cg:       cg,
			pass:     pass,
			info:     fn.Pkg.Info,
			borrows:  borrows,
			resolver: newLockResolver(fn),
		}
		ef.run()
	}
	return nil
}

// errpathFunc checks one function body.
type errpathFunc struct {
	fn       *FuncNode
	cg       *CallGraph
	pass     *ProgramPass
	info     *types.Info
	borrows  map[FuncID][]bool
	resolver *lockResolver

	// Release inventory used by heuristics.
	releasedLocks map[LockID]modeBits // locks with a matching unlock anywhere in the body
	closureUnpin  map[types.Object]bool
	closureUnlock map[LockID]modeBits
	closureTxDone map[types.Object]bool
	closureSnap   map[types.Object]bool
	closureStream map[types.Object]bool
}

func (ef *errpathFunc) run() {
	ef.scanReleases()
	ef.checkDiscards()
	for _, site := range ef.collectSites() {
		ef.checkSite(site)
	}
}

// scanReleases inventories every release in the body: which locks have
// an unlock at all, and which resources a deferred closure releases
// (a closure reads its captured variable at exit time, so it covers
// acquisitions registered after the defer as well).
func (ef *errpathFunc) scanReleases() {
	ef.releasedLocks = map[LockID]modeBits{}
	ef.closureUnpin = map[types.Object]bool{}
	ef.closureUnlock = map[LockID]modeBits{}
	ef.closureTxDone = map[types.Object]bool{}
	ef.closureSnap = map[types.Object]bool{}
	ef.closureStream = map[types.Object]bool{}
	ast.Inspect(ef.fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := ef.resolver.lockOpOf(call); op != nil && !op.acquire {
				ef.releasedLocks[op.lock] |= op.mode
			}
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
		if !ok {
			// A direct deferred unlock also runs at exit regardless of
			// where the lock is (re-)acquired: a lock's identity is
			// positionally fixed, unlike a pin's captured value, so
			// `defer l.mu.Unlock()` covers a later re-acquire of l.mu
			// (the WAL group-commit leader drops and retakes fmu under
			// a defer registered at the top).
			if op := ef.resolver.lockOpOf(d.Call); op != nil && !op.acquire {
				ef.closureUnlock[op.lock] |= op.mode
			}
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op := ef.resolver.lockOpOf(call); op != nil && !op.acquire {
				ef.closureUnlock[op.lock] |= op.mode
				return true
			}
			if obj := unpinArg(ef.info, call); obj != nil {
				ef.closureUnpin[obj] = true
				return true
			}
			if obj := snapReleaseArg(ef.info, call); obj != nil {
				ef.closureSnap[obj] = true
				return true
			}
			if obj := txReleaseRecv(ef.info, call); obj != nil {
				ef.closureTxDone[obj] = true
				return true
			}
			if obj := streamCloseRecv(ef.info, call); obj != nil {
				ef.closureStream[obj] = true
			}
			return true
		})
		return true
	})
}

// checkDiscards reports Get/Allocate results that are thrown away —
// carried over from pinbalance, these pins can never be released.
func (ef *errpathFunc) checkDiscards() {
	walkStack(ef.fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method := pagerAcquireMethod(ef.info, call)
		if method == "" || len(stack) == 0 {
			return true
		}
		switch p := stack[len(stack)-1].(type) {
		case *ast.ExprStmt:
			ef.pass.Reportf(call.Pos(), "result of Pager.%s is discarded; the pinned page leaks", method)
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && p.Rhs[0] == call && len(p.Lhs) >= 1 {
				if id, ok := p.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					ef.pass.Reportf(call.Pos(), "pinned page from Pager.%s is discarded; the pin can never be released", method)
				}
			}
		}
		return true
	})
}

// collectSites finds the acquisitions to prove balanced.
func (ef *errpathFunc) collectSites() []*resSite {
	var sites []*resSite
	g := ef.fn.CFG()
	lockExempt := strings.HasSuffix(funcBaseName(ef.fn), "Locked")
	for bi, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		for _, n := range blk.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if s := ef.assignSite(n, bi); s != nil {
					sites = append(sites, s)
				}
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok || lockExempt {
					continue
				}
				op := ef.resolver.lockOpOf(call)
				if op == nil || !op.acquire {
					continue
				}
				// Only prove balance for locks this function also
				// releases; a lock acquired and handed to the caller
				// (lockShared) is a different contract. TryLock's
				// conditional acquisition is out of scope.
				if ef.releasedLocks[op.lock]&op.mode == 0 || strings.HasPrefix(methodName(call), "Try") {
					continue
				}
				sites = append(sites, &resSite{
					kind:   resLock,
					node:   n,
					lock:   op.lock,
					mode:   op.mode,
					method: methodName(call),
					block:  bi,
					pos:    call.Pos(),
				})
			}
		}
	}
	return sites
}

// assignSite recognizes `v, err := x.Get(...)` / Allocate / BeginTx.
func (ef *errpathFunc) assignSite(n *ast.AssignStmt, block int) *resSite {
	if len(n.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	kind := resPin
	method := pagerAcquireMethod(ef.info, call)
	if method == "" {
		switch {
		case methodCallOn(ef.info, call, "DB", "BeginTx") != nil:
			kind, method = resTxn, "BeginTx"
		case methodCallOn(ef.info, call, "DB", "AcquireSnap") != nil:
			kind, method = resSnap, "AcquireSnap"
		case methodCallOn(ef.info, call, "Log", "NewStreamReader") != nil:
			kind, method = resStream, "NewStreamReader"
		default:
			return nil
		}
	}
	if len(n.Lhs) == 0 {
		return nil
	}
	id, ok := n.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil // discard cases are checkDiscards' job
	}
	obj := ef.info.ObjectOf(id)
	if obj == nil {
		return nil
	}
	s := &resSite{kind: kind, node: n, obj: obj, method: method, block: block, pos: call.Pos()}
	if len(n.Lhs) >= 2 {
		if eid, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && eid.Name != "_" {
			if eobj := ef.info.ObjectOf(eid); eobj != nil && isErrorType(eobj.Type()) {
				s.errObj = eobj
			}
		}
	}
	return s
}

// checkSite runs the forward obligation dataflow for one acquisition.
func (ef *errpathFunc) checkSite(site *resSite) {
	g := ef.fn.CFG()
	in := make([]resLevel, len(g.Blocks))
	exit := levelBot

	work := []int{site.block}
	in[site.block] = levelNone // pre-acquire prefix carries no obligation
	inWork := map[int]bool{site.block: true}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		st := in[bi]
		for _, n := range g.Blocks[bi].Nodes {
			st = ef.xfer(site, n, st)
		}
		for _, e := range g.Blocks[bi].Succs {
			if e.To == g.Exit {
				if !e.Panic && st > exit {
					exit = st
				}
				continue
			}
			next := gateEdge(ef.info, site, st, e)
			if next > in[e.To.Index] {
				in[e.To.Index] = next
				if !inWork[e.To.Index] {
					inWork[e.To.Index] = true
					work = append(work, e.To.Index)
				}
			}
		}
	}

	if exit < levelCond {
		return
	}
	if ef.closureCovers(site) {
		return
	}
	name := ef.fn.Name
	switch site.kind {
	case resPin:
		ef.pass.Reportf(site.pos, "page %q pinned by Pager.%s is not released on every path through %s (early return without Unpin?)",
			site.obj.Name(), site.method, name)
	case resTxn:
		ef.pass.Reportf(site.pos, "transaction %q from DB.%s is neither committed nor rolled back on some path through %s",
			site.obj.Name(), site.method, name)
	case resSnap:
		ef.pass.Reportf(site.pos, "snapshot %q from DB.AcquireSnap is not released on every path through %s (early return without ReleaseSnap pins the version-GC horizon)",
			site.obj.Name(), name)
	case resStream:
		ef.pass.Reportf(site.pos, "stream reader %q from Log.NewStreamReader is not closed on every path through %s (an abandoned reader leaks its segment handle)",
			site.obj.Name(), name)
	case resLock:
		ef.pass.Reportf(site.pos, "%s locked here is not unlocked on every path through %s (early return while holding it?)",
			site.lock.Short(), name)
	}
}

// closureCovers reports whether a deferred closure somewhere in the
// body releases this site's resource; closures read their captured
// variable at exit time, so registration order does not matter.
func (ef *errpathFunc) closureCovers(site *resSite) bool {
	switch site.kind {
	case resPin:
		return ef.closureUnpin[site.obj]
	case resTxn:
		return ef.closureTxDone[site.obj]
	case resSnap:
		return ef.closureSnap[site.obj]
	case resStream:
		return ef.closureStream[site.obj]
	case resLock:
		return ef.closureUnlock[site.lock]&site.mode != 0
	}
	return false
}

// xfer applies one CFG node to a site's obligation state.
func (ef *errpathFunc) xfer(site *resSite, n ast.Node, st resLevel) resLevel {
	if n == site.node {
		return site.initLevel() // (re-)acquisition starts a fresh obligation
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		// `defer pg.Unpin(p)` after the acquisition captures this
		// site's value and discharges every later exit on this path.
		if ef.nodeReleases(site, n) {
			return levelNone
		}
		if site.obj != nil && ef.objEscapesIn(site, n) {
			return levelNone
		}
		return st
	case *ast.GoStmt:
		if site.obj != nil && ef.objEscapesIn(site, n) {
			return levelNone // the goroutine owns it now
		}
		return st
	}

	if site.kind == resLock {
		if ef.nodeReleases(site, n) {
			return levelNone
		}
		return st
	}

	if ef.nodeReleases(site, n) {
		return levelNone
	}
	if reassignsObj(ef.info, n, site.obj, site.node) {
		return levelNone // variable rebound; the old value's story ended elsewhere
	}
	if ef.objEscapesIn(site, n) {
		return levelNone
	}
	if st == levelCond && site.errObj != nil && reassignsObj(ef.info, n, site.errObj, site.node) {
		return levelHeld // err re-armed before being checked
	}
	return st
}

// nodeReleases reports whether node n releases site's resource.
func (ef *errpathFunc) nodeReleases(site *resSite, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch site.kind {
		case resLock:
			if op := ef.resolver.lockOpOf(call); op != nil && !op.acquire &&
				op.lock == site.lock && op.mode&site.mode != 0 {
				found = true
			}
		case resPin:
			if unpinArg(ef.info, call) == site.obj {
				found = true
			}
		case resSnap:
			if snapReleaseArg(ef.info, call) == site.obj {
				found = true
			}
		case resTxn:
			if txReleaseRecv(ef.info, call) == site.obj {
				found = true
			}
		case resStream:
			if streamCloseRecv(ef.info, call) == site.obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// objEscapesIn reports whether node n hands site.obj to code that may
// keep or release it: returned, stored, captured by a closure, sent, or
// passed to a callee that does not merely borrow it.
func (ef *errpathFunc) objEscapesIn(site *resSite, n ast.Node) bool {
	escaped := false
	walkStack(n, func(m ast.Node, stack []ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || ef.info.ObjectOf(id) != site.obj || len(stack) == 0 {
			return true
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.FuncLit); ok {
				escaped = true // closure capture outlives this walk
				return false
			}
		}
		if ef.useEscapes(id, stack) {
			escaped = true
			return false
		}
		return true
	})
	return escaped
}

// useEscapes classifies a single use of the tracked variable, borrowing
// pinbalance's taxonomy but consulting the callee's parameter
// disposition for call arguments.
func (ef *errpathFunc) useEscapes(id *ast.Ident, stack []ast.Node) bool {
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.BinaryExpr,
		*ast.IfStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.ParenExpr, *ast.StarExpr:
		return false
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == id {
				return false // reassignment handled separately
			}
		}
		return true
	case *ast.CallExpr:
		for i, a := range p.Args {
			if a == id {
				return !ef.argBorrows(p, i)
			}
		}
		return false // id is (part of) the call target: receiver use
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr, *ast.UnaryExpr:
		return true
	default:
		return true
	}
}

// argBorrows reports whether argument i of call is only borrowed: every
// resolvable callee merely reads that parameter. Unknown callees are
// assumed to keep what they are given.
func (ef *errpathFunc) argBorrows(call *ast.CallExpr, i int) bool {
	callees := ef.cg.Callees(ef.fn.Pkg, call)
	if len(callees) == 0 {
		return false
	}
	for _, id := range callees {
		b, ok := ef.borrows[id]
		if !ok || i >= len(b) || !b[i] {
			return false
		}
	}
	return true
}

// ---- interprocedural parameter borrow inference ----

// computeParamBorrows decides, for every declared function and each of
// its parameters, whether the function only borrows the parameter:
// reads it without storing, returning, releasing, or forwarding it to a
// non-borrowing callee. Starts optimistic and knocks parameters down to
// a fixpoint (monotone, so it terminates).
func computeParamBorrows(cg *CallGraph) map[FuncID][]bool {
	params := map[FuncID][]types.Object{}
	variadic := map[FuncID]bool{}
	borrows := map[FuncID][]bool{}
	for _, id := range cg.Order {
		fn := cg.Funcs[id]
		if fn.Decl == nil || fn.Decl.Type.Params == nil {
			continue
		}
		var objs []types.Object
		for _, field := range fn.Decl.Type.Params.List {
			if _, ok := field.Type.(*ast.Ellipsis); ok {
				variadic[id] = true
			}
			if len(field.Names) == 0 {
				objs = append(objs, nil) // unnamed: trivially borrowed
				continue
			}
			for _, name := range field.Names {
				objs = append(objs, fn.Pkg.Info.Defs[name])
			}
		}
		params[id] = objs
		b := make([]bool, len(objs))
		for i := range b {
			b[i] = true
		}
		borrows[id] = b
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, id := range cg.Order {
			fn := cg.Funcs[id]
			b := borrows[id]
			for i, obj := range params[id] {
				if !b[i] || obj == nil {
					continue
				}
				if variadic[id] && i == len(b)-1 {
					b[i] = false // slices of borrowed things are beyond this analysis
					changed = true
					continue
				}
				if paramMayEscape(cg, fn, obj, borrows) {
					b[i] = false
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return borrows
}

// paramMayEscape reports whether fn does anything with obj beyond
// reading it, given the current borrow estimates for callees.
func paramMayEscape(cg *CallGraph, fn *FuncNode, obj types.Object, borrows map[FuncID][]bool) bool {
	info := fn.Pkg.Info
	escapes := false
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != obj || len(stack) == 0 {
			return true
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.FuncLit); ok {
				escapes = true
				return false
			}
		}
		switch p := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.BinaryExpr,
			*ast.IfStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.ParenExpr, *ast.StarExpr:
			return true
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == id {
					return true
				}
			}
			escapes = true
		case *ast.CallExpr:
			idx := -1
			for i, a := range p.Args {
				if a == id {
					idx = i
				}
			}
			if idx < 0 {
				return true // receiver position: method call on the param
			}
			// Releasing a resource is not borrowing it.
			if unpinArg(info, p) != nil {
				escapes = true
				return false
			}
			callees := cg.Callees(fn.Pkg, p)
			if len(callees) == 0 {
				escapes = true
				return false
			}
			for _, cid := range callees {
				cb, ok := borrows[cid]
				if !ok || idx >= len(cb) || !cb[idx] {
					escapes = true
					return false
				}
			}
		default:
			escapes = true
		}
		return !escapes
	})
	return escapes
}

// ---- shared recognizers ----

// pagerAcquireMethod returns "Get"/"Allocate" for pin-returning Pager
// calls, else "".
func pagerAcquireMethod(info *types.Info, call *ast.CallExpr) string {
	if methodCallOn(info, call, "Pager", "Get") != nil {
		return "Get"
	}
	if methodCallOn(info, call, "Pager", "Allocate") != nil {
		return "Allocate"
	}
	return ""
}

// unpinArg returns the object passed to Pager.Unpin, or nil.
func unpinArg(info *types.Info, call *ast.CallExpr) types.Object {
	if methodCallOn(info, call, "Pager", "Unpin") == nil || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// snapReleaseArg returns the object passed to DB.ReleaseSnap, or nil.
func snapReleaseArg(info *types.Info, call *ast.CallExpr) types.Object {
	if methodCallOn(info, call, "DB", "ReleaseSnap") == nil || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// txReleaseRecv returns the receiver object of a Commit*/Rollback call
// on a transaction value, or nil.
func txReleaseRecv(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	if !strings.HasPrefix(name, "Commit") && name != "Rollback" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	recv := info.ObjectOf(id)
	if recv == nil || namedOf(recv.Type()) == nil || namedOf(recv.Type()).Obj().Name() != "Tx" {
		return nil
	}
	return recv
}

// streamCloseRecv returns the receiver object of a Close or Stop call
// on a StreamReader value, or nil. Stop counts as a release: a stopped
// reader's next Next returns ErrStreamStopped and the replication
// serve loop closes it on the way out, but the fixture contract is
// simpler — either call ends the reader's claim on its segment handle.
func streamCloseRecv(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if name := sel.Sel.Name; name != "Close" && name != "Stop" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	recv := info.ObjectOf(id)
	if recv == nil || namedOf(recv.Type()) == nil || namedOf(recv.Type()).Obj().Name() != "StreamReader" {
		return nil
	}
	return recv
}

// reassignsObj reports whether n assigns to obj (and n is not the
// acquiring statement itself).
func reassignsObj(info *types.Info, n ast.Node, obj types.Object, acquireNode ast.Node) bool {
	if n == acquireNode || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// gateEdge refines a conditional obligation across a branch on the
// acquisition's error variable: the error arm carries nothing, the
// success arm a full obligation.
func gateEdge(info *types.Info, site *resSite, st resLevel, e *Edge) resLevel {
	if st != levelCond || site.errObj == nil || e.Cond == nil {
		return st
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return st
	}
	var errSide ast.Expr
	if isNilIdent(info, bin.Y) {
		errSide = bin.X
	} else if isNilIdent(info, bin.X) {
		errSide = bin.Y
	} else {
		return st
	}
	id, ok := ast.Unparen(errSide).(*ast.Ident)
	if !ok || info.ObjectOf(id) != site.errObj {
		return st
	}
	var errNonNil bool
	switch bin.Op {
	case token.NEQ:
		errNonNil = !e.Negate
	case token.EQL:
		errNonNil = e.Negate
	default:
		return st
	}
	if errNonNil {
		return levelNone
	}
	return levelHeld
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// methodName returns a call's selector method name, or "".
func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// funcBaseName is the bare declared name ("insertLocked").
func funcBaseName(fn *FuncNode) string {
	if fn.Decl != nil {
		return fn.Decl.Name.Name
	}
	return ""
}
