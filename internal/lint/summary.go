package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes per-function fact summaries over the call graph and
// fixpoint-propagates them bottom-up over SCCs, turning the analyzers'
// one-level syntax heuristics into real interprocedural reasoning: a lock
// acquired three helpers deep, a goroutine that can only block in a callee,
// an fsync error dropped by a wrapper — all become facts of the caller.

// Program is the whole-repo view handed to analyzers: the loaded packages,
// the call graph over them, and the converged summaries.
type Program struct {
	Fset      *token.FileSet
	Packages  []*Package
	Graph     *CallGraph
	Summaries map[string]*Summary
}

// BuildProgram constructs the interprocedural state for a set of packages
// loaded together (they must share one FileSet, as Load guarantees).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Packages: pkgs, Graph: buildCallGraph(pkgs)}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	prog.Summaries = buildSummaries(prog)
	return prog
}

// Summary is one function's propagated facts. Witness maps are keyed so the
// fixpoint converges: a fact is recorded once with the first call chain that
// established it.
type Summary struct {
	// Acquires maps lock class -> witness for every lock the function's
	// sequential call tree may take (spawned goroutines excluded: their
	// acquisitions happen on another stack).
	Acquires map[string]*Witness
	// HeldAtExit lists lock classes still held when the function returns
	// (lexically unreleased and not released by a defer).
	HeldAtExit []string
	// Polls is true when the call tree observes cancellation — engine.Opts
	// polling, the cancellable engine harnesses, or a context's Err/Done.
	Polls bool
	// Forever, when set, witnesses an unconditional `for {}` with no exit
	// path (no return, no break out of it, no terminating call) reachable on
	// the sequential call tree.
	Forever *Witness
	// ErrTainted marks a function whose error result can originate in the
	// durability layer (persist, wal, fsync); ErrOrigin names the source.
	ErrTainted bool
	ErrOrigin  string

	// retDeps holds the callee IDs whose error results may flow into this
	// function's own error result — the taint edges of the errdrop fixpoint.
	retDeps []retDep
	// lexHeldAtExit is the walker's direct (callee-blind) exit-held set.
	lexHeldAtExit []string
}

// Witness anchors a propagated fact: Pos is the originating site, Chain the
// call path (short function names) from the summarized function to it.
type Witness struct {
	Pos   token.Pos
	Chain []string
}

type retDep struct {
	id string      // callee node ID (may be outside the repo)
	fn *types.Func // resolved callee, for base-source classification
}

// extend prefixes a caller hop onto a callee witness chain.
func extend(short string, w *Witness) *Witness {
	chain := make([]string, 0, len(w.Chain)+1)
	chain = append(chain, short)
	chain = append(chain, w.Chain...)
	return &Witness{Pos: w.Pos, Chain: chain}
}

// ChainString renders a witness chain for a diagnostic.
func (w *Witness) ChainString() string { return strings.Join(w.Chain, " → ") }

// ---------------------------------------------------------------------------
// Lock identity

// lockOp classifies a call as a lock operation on a sync.Mutex or
// sync.RWMutex, returning the lock's class identity. Read and write locking
// share a class: for ordering and hold analysis RLock is still an
// acquisition that can participate in a deadlock cycle.
func lockOp(pkg *Package, call *ast.CallExpr) (class, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", "", false
	}
	tv, has := pkg.Info.Types[sel.X]
	if !has || !(isNamed(tv.Type, "sync", "Mutex") || isNamed(tv.Type, "sync", "RWMutex")) {
		return "", "", false
	}
	return lockClass(pkg, sel.X), op, true
}

// lockClass names the lock an expression denotes. A struct field is
// identified as pkgtail.Type.field — instance-blind on purpose: ordering is
// a property of the lock class. Re-locking one instance is a self-deadlock
// outside the class-level order graph, and no analyzer checks it.
// Package-level vars are pkgtail.name; anything else (locals, map elements)
// is position-scoped so distinct locals never alias.
func lockClass(pkg *Package, expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if tv, ok := pkg.Info.Types[x.X]; ok {
			t := tv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return pkgTail(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return pkgTail(obj.Pkg().Path()) + "." + obj.Name()
			}
			return fmt.Sprintf("local %s (%s)", obj.Name(), pkg.Fset.Position(obj.Pos()))
		}
	}
	return fmt.Sprintf("lock@%s", pkg.Fset.Position(expr.Pos()))
}

// ---------------------------------------------------------------------------
// The lock-state walker

// lockHooks receives the walker's events. held slices are snapshots in
// acquisition order and must not be retained mutably.
type lockHooks struct {
	// acquire fires for every lock acquisition with the locks already held.
	acquire func(class string, pos token.Pos, held []string)
	// call fires for every call expression with the current held set.
	call func(call *ast.CallExpr, f *types.Func, held []string, spawn bool)
	// calleeHeld, when non-nil, reports lock classes a call leaves held on
	// return (from converged summaries); the walker folds them into the
	// held state of everything after the call.
	calleeHeld func(call *ast.CallExpr) []string
}

// walkLocks runs the lexical lock-state walk over one function body and
// returns the classes still held at exit (deferred unlocks subtracted).
// Tracking is statement-level, matching the shapes the codebase uses: a
// Lock() statement opens a region, a top-level Unlock() closes it, a
// deferred Unlock keeps it open to function end, and branches inherit the
// current state without leaking their internal transitions.
func walkLocks(pkg *Package, body *ast.BlockStmt, h lockHooks) []string {
	w := &lockWalker{pkg: pkg, hooks: h, deferRel: map[string]int{}}
	exitHeld := w.stmts(body.List, nil)
	w.recordExit(exitHeld)
	held := make([]string, 0, len(w.exit))
	for class, n := range w.exit {
		for i := 0; i < n; i++ {
			held = append(held, class)
		}
	}
	sort.Strings(held)
	return held
}

type lockWalker struct {
	pkg      *Package
	hooks    lockHooks
	deferRel map[string]int // classes released by a defer
	exit     map[string]int // union of held sets at every exit point
}

// recordExit folds one exit point's held set (minus defer-released locks)
// into the function's exit union.
func (w *lockWalker) recordExit(held []string) {
	rel := make(map[string]int, len(w.deferRel))
	for k, v := range w.deferRel {
		rel[k] = v
	}
	counts := map[string]int{}
	for _, class := range held {
		if rel[class] > 0 {
			rel[class]--
			continue
		}
		counts[class]++
	}
	if w.exit == nil {
		w.exit = map[string]int{}
	}
	for class, n := range counts {
		if n > w.exit[class] {
			w.exit[class] = n
		}
	}
}

// stmts processes one statement list, threading the held set through it, and
// returns the held set after the last statement.
func (w *lockWalker) stmts(list []ast.Stmt, held []string) []string {
	for _, stmt := range list {
		held = w.stmt(stmt, held)
	}
	return held
}

// branch processes a nested statement list with a copy of the current held
// set; its internal transitions stay local.
func (w *lockWalker) branch(list []ast.Stmt, held []string) {
	w.stmts(list, append([]string(nil), held...))
}

func (w *lockWalker) stmt(stmt ast.Stmt, held []string) []string {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if class, op, ok := lockOp(w.pkg, call); ok {
				switch op {
				case "lock":
					if w.hooks.acquire != nil {
						w.hooks.acquire(class, call.Pos(), held)
					}
					return append(held, class)
				case "unlock":
					return remove(held, class)
				}
			}
		}
		return w.exprs(s.X, held)
	case *ast.DeferStmt:
		if class, op, ok := lockOp(w.pkg, s.Call); ok && op == "unlock" {
			w.deferRel[class]++
			return held
		}
		for _, arg := range s.Call.Args {
			held = w.exprs(arg, held)
		}
		if w.hooks.call != nil {
			w.hooks.call(s.Call, calleeFunc(w.pkg.Info, s.Call), held, false)
		}
		return held
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			held = w.exprs(arg, held)
		}
		if w.hooks.call != nil {
			w.hooks.call(s.Call, calleeFunc(w.pkg.Info, s.Call), held, true)
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.exprs(r, held)
		}
		w.recordExit(held)
		return held
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.exprs(s.Cond, held)
		w.branch(s.Body.List, held)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else}, held)
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, append([]string(nil), held...))
		}
		if s.Cond != nil {
			w.exprs(s.Cond, held)
		}
		w.branch(s.Body.List, held)
		return held
	case *ast.RangeStmt:
		held = w.exprs(s.X, held)
		w.branch(s.Body.List, held)
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.exprs(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body, held)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body, held)
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.branch([]ast.Stmt{cc.Comm}, held)
				}
				w.branch(cc.Body, held)
			}
		}
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	default:
		// Leaf statements (assignments, declarations, sends, …) have no
		// nested statements; visit the whole subtree for calls.
		return w.exprs(stmt, held)
	}
}

// exprs visits one subtree (skipping function literals — they are their own
// call-graph nodes), firing call events and folding callee-held locks into
// the running state.
func (w *lockWalker) exprs(e ast.Node, held []string) []string {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, isLockOp := lockOp(w.pkg, call); isLockOp {
			return true // state changes are statement-level; ignore here
		}
		if w.hooks.call != nil {
			w.hooks.call(call, calleeFunc(w.pkg.Info, call), held, false)
		}
		if w.hooks.calleeHeld != nil {
			for _, class := range w.hooks.calleeHeld(call) {
				if w.hooks.acquire != nil {
					w.hooks.acquire(class, call.Pos(), held)
				}
				held = append(held, class)
			}
		}
		return true
	})
	return held
}

// remove drops the most recent acquisition of class from held.
func remove(held []string, class string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == class {
			return append(append([]string(nil), held[:i]...), held[i+1:]...)
		}
	}
	return held
}

// ---------------------------------------------------------------------------
// Direct facts and the fixpoint

// buildSummaries computes direct per-function facts, then propagates them
// bottom-up over the call graph's SCCs until each component stabilizes.
func buildSummaries(prog *Program) map[string]*Summary {
	sums := make(map[string]*Summary, len(prog.Graph.Nodes))
	for id, n := range prog.Graph.Nodes {
		sums[id] = directFacts(n)
	}
	for _, scc := range prog.Graph.BottomUp() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if propagate(n, sums) {
					changed = true
				}
			}
		}
	}
	return sums
}

// directFacts computes one node's callee-blind summary.
func directFacts(n *FuncNode) *Summary {
	s := &Summary{Acquires: map[string]*Witness{}}
	s.lexHeldAtExit = walkLocks(n.Pkg, n.Body(), lockHooks{
		acquire: func(class string, pos token.Pos, held []string) {
			if _, seen := s.Acquires[class]; !seen {
				s.Acquires[class] = &Witness{Pos: pos, Chain: []string{n.Short}}
			}
		},
		call: func(call *ast.CallExpr, f *types.Func, held []string, spawn bool) {
			if f == nil || spawn {
				return
			}
			if pollingCall(f) {
				s.Polls = true
			}
		},
	})
	s.HeldAtExit = s.lexHeldAtExit
	if pos, ok := foreverLoop(n.Body()); ok {
		s.Forever = &Witness{Pos: pos, Chain: []string{n.Short}}
	}
	s.retDeps = returnDeps(n)
	return s
}

// propagate folds n's sequential callees' summaries into its own, reporting
// whether anything changed (the fixpoint's progress condition).
func propagate(n *FuncNode, sums map[string]*Summary) bool {
	s := sums[n.ID]
	changed := false
	for _, e := range n.Calls {
		if e.Spawn {
			continue
		}
		cs, ok := sums[e.Callee]
		if !ok {
			continue
		}
		for class, w := range cs.Acquires {
			if _, seen := s.Acquires[class]; !seen {
				s.Acquires[class] = extend(n.Short, w)
				changed = true
			}
		}
		if cs.Polls && !s.Polls {
			s.Polls = true
			changed = true
		}
		if cs.Forever != nil && s.Forever == nil && !e.Defer {
			s.Forever = extend(n.Short, cs.Forever)
			changed = true
		}
		if !e.Defer {
			for _, class := range cs.HeldAtExit {
				if !contains(s.HeldAtExit, class) {
					s.HeldAtExit = append(s.HeldAtExit, class)
					changed = true
				}
			}
		}
	}
	// Error taint: any return-flow dependency on a durability source (base
	// or already-tainted) taints this function's own error result.
	if !s.ErrTainted {
		for _, dep := range s.retDeps {
			if origin, ok := baseErrSource(dep.fn); ok {
				s.ErrTainted, s.ErrOrigin = true, origin
				changed = true
				break
			}
			if ds, ok := sums[dep.id]; ok && ds.ErrTainted {
				s.ErrTainted, s.ErrOrigin = true, ds.ErrOrigin
				changed = true
				break
			}
		}
	}
	return changed
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Fact classifiers

// pollingCall reports whether f observes cancellation — the ctxcancel
// analyzer's poll set.
func pollingCall(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	switch {
	case pathHasTail(f.Pkg().Path(), "internal/engine") &&
		(f.Name() == "Cancelled" || f.Name() == "ParallelCtx" || f.Name() == "ShardSumCtx"):
		return true
	case f.Pkg().Path() == "context" && (f.Name() == "Err" || f.Name() == "Done"):
		return true
	}
	return false
}

// foreverLoop finds an unconditional `for {}` with no exit path in body —
// no return in its subtree, no break that targets it, no goto, and no call
// that never returns (os.Exit, runtime.Goexit, panic, log.Fatal*). Function
// literals inside the loop are skipped: they are separate nodes, and code
// inside them does not exit the loop.
func foreverLoop(body *ast.BlockStmt) (token.Pos, bool) {
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopHasExit(loop) {
			found = loop.Pos()
			return false
		}
		return true
	})
	return found, found != token.NoPos
}

// loopHasExit reports whether an unconditional for-loop has any path out:
// a return, a break targeting this loop (unlabeled breaks inside nested
// for/switch/select target the inner statement, not this loop), a goto, or
// a call that never returns.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	var walk func(n ast.Node, breakTargetsLoop bool)
	walk = func(n ast.Node, breakTargetsLoop bool) {
		if n == nil || exit {
			return
		}
		ast.Inspect(n, func(node ast.Node) bool {
			if exit {
				return false
			}
			switch v := node.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exit = true
				return false
			case *ast.BranchStmt:
				switch v.Tok {
				case token.BREAK:
					if breakTargetsLoop || v.Label != nil {
						// A labeled break from inside this loop necessarily
						// targets this loop or something enclosing it.
						exit = true
					}
				case token.GOTO:
					exit = true // conservatively an exit path
				}
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if node == n {
					return true
				}
				// Unlabeled breaks below here bind to this inner statement.
				walk(node, false)
				return false
			case *ast.CallExpr:
				if neverReturns(v) {
					exit = true
					return false
				}
			}
			return true
		})
	}
	walk(loop.Body, true)
	return exit
}

// neverReturns matches calls that terminate the goroutine or process.
func neverReturns(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch {
			case base.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case base.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			case base.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Error-taint dependencies

// baseErrSource classifies the durability layer's primary error producers:
// error-returning functions in internal/persist and internal/wal — except
// transport sinks (see writerSink), whose errors are the caller's writer's,
// not the durability path's — plus (*os.File).Sync itself.
func baseErrSource(f *types.Func) (origin string, ok bool) {
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	if f.Name() == "Sync" && recvIs(f, "os", "File") {
		return "(*os.File).Sync", true
	}
	if !pathHasTail(f.Pkg().Path(), "internal/persist") && !pathHasTail(f.Pkg().Path(), "internal/wal") {
		return "", false
	}
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || !lastResultIsError(sig) {
		return "", false
	}
	if writerSink(sig) {
		return "", false
	}
	return shortFuncName(f), true
}

// recvIs reports whether f is a method on (a pointer to) pkgTail.name.
func recvIs(f *types.Func, pkgTail, name string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgTail, name)
}

// writerSink reports whether sig writes to a caller-supplied io.Writer —
// either as its first parameter or wrapped in its receiver (a field declared
// as the io.Writer interface). Errors from such functions belong to the
// transport the caller handed in, not the durability path, so they are
// neither taint sources nor taint carriers.
func writerSink(sig *types.Signature) bool {
	if sig.Params().Len() > 0 && isNamed(sig.Params().At(0).Type(), "io", "Writer") {
		return true
	}
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isNamed(st.Field(i).Type(), "io", "Writer") {
			return true
		}
	}
	return false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return isErrorType(res.At(res.Len() - 1).Type())
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// returnDeps computes the callee IDs whose error results can flow into n's
// own error result: calls returned directly, error variables assigned from
// calls and later returned, and either of those wrapped through fmt.Errorf.
func returnDeps(n *FuncNode) []retDep {
	sig := funcSignature(n)
	if sig == nil || !lastResultIsError(sig) {
		return nil
	}
	if writerSink(sig) {
		// A transport-sink function never carries durability taint outward,
		// whatever its internals call.
		return nil
	}
	info := n.Pkg.Info
	// varDeps: error-typed variable -> the calls whose error result it held.
	varDeps := map[types.Object][]retDep{}
	recordAssign := func(lhs []ast.Expr, rhs []ast.Expr) {
		if len(rhs) == 1 {
			call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
			if !ok {
				return
			}
			f := calleeFunc(info, call)
			if f == nil {
				return
			}
			csig, ok := f.Type().(*types.Signature)
			if !ok || !lastResultIsError(csig) {
				return
			}
			errIdx := csig.Results().Len() - 1
			if errIdx >= len(lhs) {
				return
			}
			if id, ok := ast.Unparen(lhs[errIdx]).(*ast.Ident); ok && id.Name != "_" {
				if obj := identObj(info, id); obj != nil {
					varDeps[obj] = append(varDeps[obj], retDep{id: f.FullName(), fn: f})
				}
			}
			return
		}
		for i, r := range rhs {
			if i >= len(lhs) {
				break
			}
			call, ok := ast.Unparen(r).(*ast.CallExpr)
			if !ok {
				continue
			}
			f := calleeFunc(info, call)
			if f == nil {
				continue
			}
			if csig, ok := f.Type().(*types.Signature); !ok || !lastResultIsError(csig) {
				continue
			}
			if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj := identObj(info, id); obj != nil {
					varDeps[obj] = append(varDeps[obj], retDep{id: f.FullName(), fn: f})
				}
			}
		}
	}

	var deps []retDep
	addExprDeps := func(e ast.Expr) {
		switch v := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if f := calleeFunc(info, v); f != nil {
				// fmt.Errorf wrapping: the taint rides the %w argument.
				if f.Pkg() != nil && f.Pkg().Path() == "fmt" && f.Name() == "Errorf" {
					for _, arg := range v.Args {
						switch a := ast.Unparen(arg).(type) {
						case *ast.Ident:
							if obj := identObj(info, a); obj != nil {
								deps = append(deps, varDeps[obj]...)
							}
						case *ast.CallExpr:
							if af := calleeFunc(info, a); af != nil {
								deps = append(deps, retDep{id: af.FullName(), fn: af})
							}
						}
					}
					return
				}
				deps = append(deps, retDep{id: f.FullName(), fn: f})
			}
		case *ast.Ident:
			if obj := identObj(info, v); obj != nil {
				deps = append(deps, varDeps[obj]...)
			}
		}
	}

	namedErrResult := namedErrorResult(n, sig)
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		switch v := node.(type) {
		case *ast.AssignStmt:
			recordAssign(v.Lhs, v.Rhs)
		case *ast.ReturnStmt:
			if len(v.Results) == 0 {
				if namedErrResult != nil {
					deps = append(deps, varDeps[namedErrResult]...)
				}
				return true
			}
			addExprDeps(v.Results[len(v.Results)-1])
		}
		return true
	})
	return deps
}

// funcSignature returns the node's own signature.
func funcSignature(n *FuncNode) *types.Signature {
	if n.Decl != nil {
		if f, _ := n.Pkg.Info.Defs[n.Decl.Name].(*types.Func); f != nil {
			sig, _ := f.Type().(*types.Signature)
			return sig
		}
		return nil
	}
	if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

// namedErrorResult returns the object of a named error result (for bare
// returns), or nil.
func namedErrorResult(n *FuncNode, sig *types.Signature) types.Object {
	if n.Decl == nil || n.Decl.Type.Results == nil {
		return nil
	}
	fields := n.Decl.Type.Results.List
	if len(fields) == 0 {
		return nil
	}
	last := fields[len(fields)-1]
	if len(last.Names) == 0 {
		return nil
	}
	name := last.Names[len(last.Names)-1]
	return n.Pkg.Info.Defs[name]
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
