package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function lock-set summaries — which locks a
// function acquires, releases, and holds across each call — and
// propagates them bottom-up through the call graph, RacerD-style. The
// lockorder analyzer consumes the summaries to build the global
// lock-acquisition-order graph; errpath reuses the op recognizer for
// its per-path balance check.
//
// Lock identity is class-based: every instance of store.Pager shares
// the identity "store.Pager.mu", which is the right granularity for an
// order policy (the sanctioned order is between tiers, not instances).
// A lock reached through an accessor method keeps the accessor as its
// field ("db.DB.QueryLock()"), and function-local mutexes are keyed by
// their defining function.
//
// The engine's unlock-closure idiom is modeled explicitly: a function
// returning `l.RUnlock` (or a closure that unlocks) advertises those
// releases, and a call through a local variable or struct field bound
// to such a value (`unlock := s.lockShared(); unlock()`,
// `s.txUnlock()`) counts as performing the releases itself.

// modeBits is a lock-mode set: read, write, or both (join of paths).
type modeBits uint8

const (
	bitR modeBits = 1 << iota
	bitW
)

func (m modeBits) String() string {
	switch m {
	case bitR:
		return "read"
	case bitW:
		return "write"
	case bitR | bitW:
		return "read|write"
	}
	return "none"
}

// LockID names one lock class: the owning type (or package/function for
// loose mutexes) plus the field or accessor that reaches it.
type LockID struct {
	Owner string // qualified owner, e.g. "lexequal/internal/store.Pager"
	Field string // "mu", "latch", "QueryLock()"
}

func (l LockID) String() string { return l.Owner + "." + l.Field }

// Short is the diagnostic-friendly form: "store.Pager.mu".
func (l LockID) Short() string {
	owner := l.Owner
	if i := strings.LastIndexByte(owner, '/'); i >= 0 {
		owner = owner[i+1:]
	}
	return owner + "." + l.Field
}

// lockOp is one recognized mutex operation.
type lockOp struct {
	lock    LockID
	mode    modeBits
	acquire bool
	pos     token.Pos
}

// lockSet is a may-held set: lock → modes it may be held in.
type lockSet map[LockID]modeBits

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// equal reports set equality.
func (s lockSet) equal(o lockSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if o[k] != v {
			return false
		}
	}
	return true
}

// union merges o into s, reporting whether s grew.
func (s lockSet) union(o lockSet) bool {
	grew := false
	for k, v := range o {
		if s[k]&v != v {
			s[k] |= v
			grew = true
		}
	}
	return grew
}

// clear removes modes m of lock l from s.
func (s lockSet) clear(l LockID, m modeBits) {
	if left := s[l] &^ m; left != 0 {
		s[l] = left
	} else {
		delete(s, l)
	}
}

// intersect keeps only the modes present in both sets, reporting
// whether s shrank. Used for must-sets, whose join is intersection.
func (s lockSet) intersect(o lockSet) bool {
	shrank := false
	for k, v := range s {
		if kept := v & o[k]; kept != v {
			shrank = true
			if kept != 0 {
				s[k] = kept
			} else {
				delete(s, k)
			}
		}
	}
	return shrank
}

// lockState is the in-flight dataflow fact, split by provenance: locks
// acquired directly in this function versus inherited from a callee's
// net holds (a handoff, like Session.lockShared exiting with the query
// lock held). The split exists because inherited holds must not
// survive a loop back edge — a handoff covers the statements that
// follow the call, but
// letting it persist across iterations makes every driver running
// BEGIN…COMMIT in a loop look like it interleaves lock orders it never
// takes.
type lockState struct {
	direct    lockSet
	inherited lockSet
	// mustRel is the must-released-since-entry set: locks this function
	// has explicitly unlocked on every path to here without reacquiring
	// them. It lets call-site edge generation see through the drop-lock,
	// call-down, retake-lock idiom (the WAL group-commit leader).
	mustRel lockSet
}

func newLockState() lockState {
	return lockState{direct: lockSet{}, inherited: lockSet{}, mustRel: lockSet{}}
}

func (s lockState) clone() lockState {
	return lockState{
		direct:    s.direct.clone(),
		inherited: s.inherited.clone(),
		mustRel:   s.mustRel.clone(),
	}
}

// held is the union view used for edge generation and release checks.
func (s lockState) held() lockSet {
	out := s.direct.clone()
	out.union(s.inherited)
	return out
}

func (s lockState) holds(l LockID, m modeBits) bool {
	return (s.direct[l]|s.inherited[l])&m != 0
}

func (s lockState) release(l LockID, m modeBits) {
	s.direct.clear(l, m)
	s.inherited.clear(l, m)
}

// event is one flow-relevant occurrence inside a block, in execution
// order: a lock operation or a call.
type event struct {
	op       *lockOp       // non-nil for lock operations
	call     *ast.CallExpr // non-nil for calls
	callees  []FuncID      // resolved callees of call
	deferred bool          // registered by a defer statement
	isGo     bool          // launched on a new goroutine
	pos      token.Pos
}

// transEntry records that a function (transitively) acquires a lock.
type transEntry struct {
	bits modeBits
	via  string // immediate callee the acquisition was inherited from; "" if local
	pos  token.Pos
	// relBefore: locks (and modes) provably released, on every path,
	// before this acquisition happens — so a caller holding one of them
	// does not actually nest it around the acquire.
	relBefore lockSet
	relSet    bool // relBefore initialized (empty set ≠ uninitialized)
}

// acqSite is one local acquire with the locks held on arrival.
type acqSite struct {
	op      *lockOp
	held    lockSet
	mustRel lockSet
}

// callSite is one resolved call with the locks held across it.
type callSite struct {
	callees  []FuncID
	pos      token.Pos
	held     lockSet
	mustRel  lockSet
	deferred bool
	isGo     bool
}

// lockSummary is one function's lock behavior.
type lockSummary struct {
	fn       *FuncNode
	resolver *lockResolver
	events   [][]event // per CFG block, execution order

	// Fixpoint outputs.
	netHolds    lockSet // may be held at exit (beyond what was held at entry)
	netReleases lockSet // released at exit without a matching local acquire
	trans       map[LockID]transEntry

	// Final recording-pass outputs.
	acquires []acqSite
	calls    []callSite

	deferredReleases map[LockID]modeBits
	deferredCallees  map[FuncID]bool
}

// fieldKey identifies a struct field that stores an unlock closure.
type fieldKey struct {
	owner, field string
}

// lockSummaries is the whole-program summary table.
type lockSummaries struct {
	prog *Program
	cg   *CallGraph
	byID map[FuncID]*lockSummary

	// retRel: releases a function hands back to its caller as a
	// returned closure or method value (lockShared returns l.RUnlock).
	retRel map[FuncID][]lockOp
	// fieldRel: releases performed by invoking the closure stored in a
	// struct field (s.txUnlock()).
	fieldRel map[fieldKey][]lockOp
}

// maxSummaryRounds bounds the interprocedural fixpoints; the engine's
// call depth is far below this, so hitting the cap just means a sound
// but slightly stale summary.
const maxSummaryRounds = 16

func computeLockSummaries(prog *Program) *lockSummaries {
	cg := prog.CallGraph()
	ls := &lockSummaries{
		prog:     prog,
		cg:       cg,
		byID:     map[FuncID]*lockSummary{},
		retRel:   map[FuncID][]lockOp{},
		fieldRel: map[fieldKey][]lockOp{},
	}
	for _, id := range cg.Order {
		ls.byID[id] = &lockSummary{
			fn:               cg.Funcs[id],
			resolver:         newLockResolver(cg.Funcs[id]),
			netHolds:         lockSet{},
			netReleases:      lockSet{},
			trans:            map[LockID]transEntry{},
			deferredReleases: map[LockID]modeBits{},
			deferredCallees:  map[FuncID]bool{},
		}
	}
	ls.computeReturnReleases()
	for _, id := range cg.Order {
		s := ls.byID[id]
		s.events = ls.extractEvents(s)
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, id := range cg.Order {
			if ls.flow(ls.byID[id], false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Recording pass with stabilized summaries.
	for _, id := range cg.Order {
		ls.flow(ls.byID[id], true)
	}
	ls.computeTrans()
	return ls
}

// ---- unlock-closure modeling ----

// computeReturnReleases fills retRel (releases a function returns as a
// closure) and fieldRel (releases a stored closure field performs).
// retRel needs its own fixpoint because acquireDB forwards lockShared's
// closure through its own return.
func (ls *lockSummaries) computeReturnReleases() {
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, id := range ls.cg.Order {
			s := ls.byID[id]
			var ops []lockOp
			ast.Inspect(s.fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a literal's returns are its own
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, e := range ret.Results {
					ops = append(ops, ls.releaseOpsOfExpr(s, e, 0)...)
				}
				return true
			})
			ops = dedupOps(ops)
			if !sameOps(ls.retRel[id], ops) {
				ls.retRel[id] = ops
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, id := range ls.cg.Order {
		s := ls.byID[id]
		info := s.fn.Pkg.Info
		ast.Inspect(s.fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				tsel, ok := info.Selections[sel]
				if !ok || tsel.Kind() != types.FieldVal {
					continue
				}
				owner := ownerTypeName(tsel.Recv())
				if owner == "" {
					continue
				}
				if ops := ls.releaseOpsOfExpr(s, as.Rhs[i], 0); len(ops) > 0 {
					k := fieldKey{owner: owner, field: sel.Sel.Name}
					ls.fieldRel[k] = dedupOps(append(ls.fieldRel[k], ops...))
				}
			}
			return true
		})
	}
}

// releaseOpsOfExpr resolves an expression to the releases invoking it
// as a closure would perform: an unlock method value, a literal that
// unlocks, a call whose callees return such a closure, or a local
// variable bound to one of those.
func (ls *lockSummaries) releaseOpsOfExpr(s *lockSummary, e ast.Expr, depth int) []lockOp {
	if depth > 4 {
		return nil
	}
	info := s.fn.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		m, ok := lockMethods[e.Sel.Name]
		if !ok || m.acquire {
			return nil
		}
		tv, ok := info.Types[e.X]
		if !ok {
			return nil
		}
		kind := mutexKind(tv.Type)
		if kind == "" || (kind == "Mutex" && e.Sel.Name == "RUnlock") {
			return nil
		}
		mode := m.mode
		if kind == "Mutex" {
			mode = bitW
		}
		return []lockOp{{lock: s.resolver.resolveRoot(e.X), mode: mode, pos: e.Pos()}}
	case *ast.FuncLit:
		var ops []lockOp
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op := s.resolver.lockOpOf(call); op != nil && !op.acquire {
					ops = append(ops, *op)
				}
			}
			return true
		})
		return ops
	case *ast.CallExpr:
		var ops []lockOp
		for _, id := range ls.cg.Callees(s.fn.Pkg, e) {
			ops = append(ops, ls.retRel[id]...)
		}
		return ops
	case *ast.Ident:
		if init, ok := s.resolver.inits[info.ObjectOf(e)]; ok && init != nil {
			return ls.releaseOpsOfExpr(s, init, depth+1)
		}
	}
	return nil
}

// valueCallReleases resolves a call through a function value — a local
// closure variable or a stored closure field — to the releases it
// performs; nil when the value is not a known unlock closure.
func (ls *lockSummaries) valueCallReleases(s *lockSummary, call *ast.CallExpr) []lockOp {
	info := s.fn.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(fun).(*types.Var); ok {
			if init, ok := s.resolver.inits[v]; ok && init != nil {
				return ls.releaseOpsOfExpr(s, init, 0)
			}
		}
	case *ast.SelectorExpr:
		if tsel, ok := info.Selections[fun]; ok && tsel.Kind() == types.FieldVal {
			if owner := ownerTypeName(tsel.Recv()); owner != "" {
				return ls.fieldRel[fieldKey{owner: owner, field: fun.Sel.Name}]
			}
		}
	}
	return nil
}

func dedupOps(ops []lockOp) []lockOp {
	seen := map[string]bool{}
	out := ops[:0]
	for _, op := range ops {
		k := op.lock.String() + "/" + op.mode.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, op)
		}
	}
	return out
}

func sameOps(a, b []lockOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].lock != b[i].lock || a[i].mode != b[i].mode {
			return false
		}
	}
	return true
}

// ---- event extraction ----

// extractEvents collects each block's lock operations and calls in
// execution order. Function-literal bodies are analyzed as their own
// graph nodes and pruned here.
func (ls *lockSummaries) extractEvents(s *lockSummary) [][]event {
	g := s.fn.CFG()
	out := make([][]event, len(g.Blocks))
	for bi, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			switch n := n.(type) {
			case *ast.DeferStmt:
				out[bi] = append(out[bi], ls.nodeEvents(s, n.Call, true, false)...)
				continue
			case *ast.GoStmt:
				out[bi] = append(out[bi], ls.nodeEvents(s, n.Call, false, true)...)
				continue
			}
			out[bi] = append(out[bi], ls.nodeEvents(s, n, false, false)...)
		}
	}
	return out
}

// nodeEvents walks one node for lock ops and calls.
func (ls *lockSummaries) nodeEvents(s *lockSummary, n ast.Node, deferred, isGo bool) []event {
	var out []event
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate graph node; the enclosing CallExpr (if any) was already recorded
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := s.resolver.lockOpOf(call); op != nil {
			out = append(out, event{op: op, deferred: deferred, isGo: isGo, pos: call.Pos()})
			return true
		}
		callees := ls.cg.Callees(s.fn.Pkg, call)
		if len(callees) == 0 && !isGo {
			// A call through a function value: a known unlock closure
			// performs its releases right here.
			for _, op := range ls.valueCallReleases(s, call) {
				rel := op
				rel.pos = call.Pos()
				out = append(out, event{op: &rel, deferred: deferred, pos: call.Pos()})
			}
			return true
		}
		out = append(out, event{
			call:     call,
			callees:  callees,
			deferred: deferred,
			isGo:     isGo,
			pos:      call.Pos(),
		})
		return true
	})
	return out
}

// ---- intra-function dataflow ----

// backEdge reports whether blk→e is a loop back edge: only loop heads
// receive them, always from a block created later than the head.
func backEdge(blk *Block, e *Edge) bool {
	return (e.To.What == "for.head" || e.To.What == "range.head") && e.To.Index < blk.Index
}

// flow runs the intra-function may-held dataflow with the current
// callee summaries. With record set it also fills acquires/calls.
// Returns whether netHolds/netReleases changed.
func (ls *lockSummaries) flow(s *lockSummary, record bool) bool {
	g := s.fn.CFG()
	in := make([]*lockState, len(g.Blocks))
	entry := newLockState()
	in[g.Entry.Index] = &entry
	netReleases := lockSet{}
	if record {
		s.acquires = nil
		s.calls = nil
	}

	work := []*Block{g.Entry}
	inWork := map[int]bool{g.Entry.Index: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false
		state := in[blk.Index].clone()
		for i := range s.events[blk.Index] {
			ev := &s.events[blk.Index][i]
			switch {
			case ev.op != nil && ev.op.acquire:
				if ev.deferred || ev.isGo {
					break // a deferred or goroutine acquire transfers nothing here
				}
				if record {
					s.acquires = append(s.acquires, acqSite{
						op:      ev.op,
						held:    state.held(),
						mustRel: state.mustRel.clone(),
					})
				}
				state.direct[ev.op.lock] |= ev.op.mode
				state.mustRel.clear(ev.op.lock, ev.op.mode)
			case ev.op != nil:
				if ev.isGo {
					break
				}
				if ev.deferred {
					s.deferredReleases[ev.op.lock] |= ev.op.mode
					break
				}
				if !state.holds(ev.op.lock, ev.op.mode) {
					netReleases[ev.op.lock] |= ev.op.mode
				}
				state.release(ev.op.lock, ev.op.mode)
				state.mustRel[ev.op.lock] |= ev.op.mode
			case ev.call != nil:
				if record && len(ev.callees) > 0 {
					s.calls = append(s.calls, callSite{
						callees:  ev.callees,
						pos:      ev.pos,
						held:     state.held(),
						mustRel:  state.mustRel.clone(),
						deferred: ev.deferred,
						isGo:     ev.isGo,
					})
				}
				if ev.isGo {
					break // runs concurrently: no lock transfer
				}
				if ev.deferred {
					for _, id := range ev.callees {
						s.deferredCallees[id] = true
					}
					break // effects apply at exit
				}
				for _, id := range ev.callees {
					cs := ls.byID[id]
					if cs == nil {
						continue
					}
					// Releases first, exit holds second: a *Locked
					// helper drops the caller's lock and exits holding
					// its own retake.
					for l, m := range cs.netReleases {
						state.release(l, m)
					}
					state.inherited.union(cs.netHolds)
					for l, m := range cs.netHolds {
						state.mustRel.clear(l, m) // a callee handoff re-arms the lock
					}
				}
			}
		}
		for _, e := range blk.Succs {
			dst := e.To.Index
			grew := false
			if in[dst] == nil {
				ns := state.clone()
				in[dst] = &ns
				grew = true
				if backEdge(blk, e) {
					in[dst].inherited = lockSet{}
				}
			} else {
				if in[dst].direct.union(state.direct) {
					grew = true
				}
				// Inherited handoffs do not survive a loop back edge;
				// see the lockState comment.
				if !backEdge(blk, e) {
					if in[dst].inherited.union(state.inherited) {
						grew = true
					}
				}
				// The must-release join is intersection.
				if in[dst].mustRel.intersect(state.mustRel) {
					grew = true
				}
			}
			if grew && !inWork[dst] {
				inWork[dst] = true
				work = append(work, e.To)
			}
		}
	}

	// Exit state, with at-exit defers applied.
	netHolds := lockSet{}
	if exit := in[g.Exit.Index]; exit != nil {
		netHolds = exit.held()
	}
	for l, m := range s.deferredReleases {
		if netHolds[l]&m != m {
			netReleases[l] |= m &^ netHolds[l]
		}
		netHolds.clear(l, m)
	}
	for id := range s.deferredCallees {
		cs := ls.byID[id]
		if cs == nil {
			continue
		}
		for l, m := range cs.netReleases {
			// Only the unmatched remainder is a net release of the
			// caller's own entry state; the rest balances local holds.
			if rem := m &^ netHolds[l]; rem != 0 {
				netReleases[l] |= rem
			}
			netHolds.clear(l, m)
		}
		netHolds.union(cs.netHolds)
	}

	changed := !s.netHolds.equal(netHolds) || !s.netReleases.equal(netReleases)
	s.netHolds = netHolds
	s.netReleases = netReleases
	return changed
}

// computeTrans propagates "may acquire" sets bottom-up: a function
// transitively acquires everything it locks locally plus everything its
// (non-goroutine) callees transitively acquire.
func (ls *lockSummaries) computeTrans() {
	for _, id := range ls.cg.Order {
		s := ls.byID[id]
		for _, a := range s.acquires {
			e := s.trans[a.op.lock]
			e.bits |= a.op.mode
			if e.pos == token.NoPos {
				e.pos = a.op.pos
			}
			mergeRelBefore(&e, a.mustRel)
			s.trans[a.op.lock] = e
		}
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, id := range ls.cg.Order {
			s := ls.byID[id]
			for _, c := range s.calls {
				if c.isGo {
					continue
				}
				for _, calleeID := range c.callees {
					cs := ls.byID[calleeID]
					if cs == nil {
						continue
					}
					for l, ce := range cs.trans {
						e := s.trans[l]
						grew := e.bits&ce.bits != ce.bits
						e.bits |= ce.bits
						if e.via == "" && e.pos == token.NoPos {
							e.via = cs.fn.Name
							e.pos = c.pos
						}
						// The acquire is preceded by whatever this call
						// site released plus whatever the callee itself
						// releases before the acquire.
						cand := c.mustRel.clone()
						cand.union(ce.relBefore)
						if mergeRelBefore(&e, cand) {
							grew = true
						}
						if grew {
							s.trans[l] = e
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// mergeRelBefore folds one witness's released-before set into a trans
// entry (intersection across witnesses), reporting any change.
func mergeRelBefore(e *transEntry, rel lockSet) bool {
	if !e.relSet {
		e.relSet = true
		e.relBefore = rel.clone()
		return len(e.relBefore) > 0
	}
	return e.relBefore.intersect(rel)
}

// ---- lock-operation recognition ----

// lockMethods maps method names to (mode, acquire) on sync mutexes.
var lockMethods = map[string]struct {
	mode    modeBits
	acquire bool
}{
	"Lock":     {bitW, true},
	"TryLock":  {bitW, true},
	"RLock":    {bitR, true},
	"TryRLock": {bitR, true},
	"Unlock":   {bitW, false},
	"RUnlock":  {bitR, false},
}

// lockResolver resolves the receiver expression of a mutex method call
// to a LockID, chasing local variables to their initializer so
// `l := d.QueryLock(); l.RLock()` keys on the accessor, not the
// temporary.
type lockResolver struct {
	fn    *FuncNode
	inits map[types.Object]ast.Expr
	depth int
}

func newLockResolver(fn *FuncNode) *lockResolver {
	r := &lockResolver{fn: fn, inits: map[types.Object]ast.Expr{}}
	info := fn.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							if _, seen := r.inits[obj]; !seen {
								r.inits[obj] = n.Rhs[i]
							} else {
								r.inits[obj] = nil // multiple assignments: give up
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					if obj := info.ObjectOf(name); obj != nil {
						r.inits[obj] = n.Values[i]
					}
				}
			}
		}
		return true
	})
	return r
}

// mutexKind reports "Mutex"/"RWMutex" when t is (a pointer to) one.
func mutexKind(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return ""
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return n.Obj().Name()
	}
	return ""
}

// lockOpOf recognizes call as a mutex operation and resolves its lock.
func (r *lockResolver) lockOpOf(call *ast.CallExpr) *lockOp {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	m, ok := lockMethods[sel.Sel.Name]
	if !ok {
		return nil
	}
	info := r.fn.Pkg.Info
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	kind := mutexKind(tv.Type)
	if kind == "" {
		return nil
	}
	mode := m.mode
	if kind == "Mutex" {
		mode = bitW // a plain Mutex has no read mode
		if sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock" || sel.Sel.Name == "TryRLock" {
			return nil
		}
	}
	lock := r.resolveRoot(sel.X)
	return &lockOp{lock: lock, mode: mode, acquire: m.acquire, pos: call.Pos()}
}

// resolveRoot derives the class identity of a lock expression.
func (r *lockResolver) resolveRoot(e ast.Expr) LockID {
	r.depth = 0
	return r.resolve(e)
}

func (r *lockResolver) resolve(e ast.Expr) LockID {
	info := r.fn.Pkg.Info
	if r.depth++; r.depth > 10 {
		return r.fallback(e)
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return r.resolve(e.X)
		}
	case *ast.StarExpr:
		return r.resolve(e.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := ownerTypeName(sel.Recv()); owner != "" {
				return LockID{Owner: owner, Field: e.Sel.Name}
			}
		}
		// Qualified package-level variable (pkg.Var).
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return LockID{Owner: v.Pkg().Path(), Field: v.Name()}
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := info.Types[sel.X]; ok {
				if owner := ownerTypeName(tv.Type); owner != "" {
					return LockID{Owner: owner, Field: sel.Sel.Name + "()"}
				}
			}
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				return LockID{Owner: fn.Pkg().Path(), Field: fn.Name() + "()"}
			}
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
				return LockID{Owner: fn.Pkg().Path(), Field: fn.Name() + "()"}
			}
		}
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return LockID{Owner: v.Pkg().Path(), Field: v.Name()}
			}
			if init, ok := r.inits[obj]; ok && init != nil {
				return r.resolve(init)
			}
		}
	}
	return r.fallback(e)
}

// fallback keys an unrecognized lock expression to its function.
func (r *lockResolver) fallback(e ast.Expr) LockID {
	return LockID{
		Owner: r.fn.Pkg.ImportPath + "." + r.fn.Name,
		Field: types.ExprString(e),
	}
}

// ownerTypeName qualifies the named type owning a field or accessor.
func ownerTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
