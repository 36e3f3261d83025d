package lint

import (
	"go/ast"
)

// AtomicSnap guards the lock-free read path: the serving snapshot (and its
// siblings — the follower's server pointer, the router's admitted set) lives
// in an atomic.Pointer precisely so readers never take a lock. Any access
// that is not one of the atomic methods — copying the field, assigning over
// it, taking its address — either tears the publish protocol or copies a
// sync primitive (a copy observes no further Stores and silently serves a
// stale snapshot forever).
//
// The rule is syntactic and complete: every value reference to an
// atomic.Pointer must appear as the receiver of an immediate
// Load/Store/Swap/CompareAndSwap call.
//
// go vet's copylocks already reports the two copy shapes (p := s.snap,
// c := current) but not the reset (s.snap = atomic.Pointer[T]{}) or the
// address-of (&s.snap). One rule covers all four, so trimming it to the
// shapes vet misses would not shorten it.
type AtomicSnap struct{}

func (AtomicSnap) Name() string { return "atomicsnap" }

func (AtomicSnap) Doc() string {
	return "atomic.Pointer snapshot fields may only be accessed through Load/Store/Swap/CompareAndSwap, never read, copied, or reassigned directly"
}

var atomicPointerMethods = map[string]bool{
	"Load":           true,
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

func (AtomicSnap) Run(p *Pass) {
	for _, file := range p.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			expr, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			var name string
			switch e := expr.(type) {
			case *ast.Ident:
				// The Sel half of a selector is reported via the whole
				// SelectorExpr, not again as a bare identifier.
				if len(stack) >= 2 {
					if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.Sel == e {
						return true
					}
				}
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			default:
				return true
			}
			tv, ok := p.Info.Types[expr]
			if !ok || !tv.IsValue() || !isNamed(tv.Type, "sync/atomic", "Pointer") {
				return true
			}
			if isAtomicMethodReceiver(expr, stack) {
				return true
			}
			p.Reportf(expr.Pos(), "%s is an atomic.Pointer; access it only through Load/Store/Swap/CompareAndSwap — direct reads, copies, or assignment bypass the publish protocol", name)
			return true
		})
	}
}

// isAtomicMethodReceiver reports whether expr (the last node on stack) is
// the X of a selector naming an allowed atomic method that is immediately
// called: expr.Load(), expr.Store(v), ...
func isAtomicMethodReceiver(expr ast.Expr, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	sel, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	if !ok || sel.X != expr || !atomicPointerMethods[sel.Sel.Name] {
		return false
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	return ok && call.Fun == sel
}
