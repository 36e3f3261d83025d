package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockHold enforces the serving write-lock discipline: writeMu serializes
// mutations and snapshot publishes, so nothing slow may run while it is
// held. Two call classes are banned inside a writeMu critical section:
// anything in net/http (a network wait under the write lock stalls every
// writer) and (*os.File).Sync (fsync belongs in the WAL/persist layer
// outside the lock — the atomic-rename save protocol syncs after the data is
// marshaled).
//
// Held-state tracking is the shared lexical lock walker (a Lock() opens the
// region, a top-level Unlock() closes it, a deferred Unlock holds to the end
// of the function), extended through the call graph: a banned call is
// reported even when it is buried in a callee — the function summaries carry
// the witness chain — and a helper that returns still holding writeMu makes
// everything after the call a critical section too.
type LockHold struct{}

func (LockHold) Name() string { return "lockhold" }

func (LockHold) Doc() string {
	return "no call into net/http or (*os.File).Sync while writeMu is held, traced through callees"
}

func (LockHold) Interprocedural() bool { return true }

// writeMuHeld reports whether any held class is a writeMu.
func writeMuHeld(held []string) bool {
	for _, class := range held {
		if strings.HasSuffix(class, ".writeMu") || class == "writeMu" {
			return true
		}
	}
	return false
}

func (LockHold) Run(p *Pass) {
	if p.Prog == nil {
		return
	}
	ids := make([]string, 0, len(p.Prog.Graph.Nodes))
	for id, n := range p.Prog.Graph.Nodes {
		if n.Pkg.Pkg == p.Pkg {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := p.Prog.Graph.Nodes[id]
		walkLocks(n.Pkg, n.Body(), lockHooks{
			call: func(call *ast.CallExpr, f *types.Func, held []string, spawn, deferred bool) {
				if spawn || !writeMuHeld(held) {
					return
				}
				if f != nil {
					if kind, _, ok := bannedCall(f); ok {
						reportDirectBanned(p, call, f, kind)
						return
					}
				}
				// Not banned itself: does its sequential call tree reach a
				// banned call? The summaries carry the witness chain.
				for _, e := range n.EdgesAt(call.Pos()) {
					if e.Spawn {
						continue
					}
					sum, ok := p.Prog.Summaries[e.Callee]
					if !ok || len(sum.Banned) == 0 {
						continue
					}
					kinds := make([]string, 0, len(sum.Banned))
					for kind := range sum.Banned {
						kinds = append(kinds, kind)
					}
					sort.Strings(kinds)
					for _, kind := range kinds {
						bw := sum.Banned[kind]
						p.Reportf(call.Pos(), "call while writeMu is held reaches %s (call path: %s); %s",
							bw.Detail, bw.ChainString(), bannedRationale(kind))
					}
				}
			},
			calleeHeld: func(call *ast.CallExpr) []string {
				var out []string
				for _, e := range n.EdgesAt(call.Pos()) {
					if e.Spawn || e.Defer {
						continue
					}
					if sum, ok := p.Prog.Summaries[e.Callee]; ok {
						out = append(out, sum.HeldAtExit...)
					}
				}
				return out
			},
		})
	}
}

// reportDirectBanned keeps the original single-function message shapes.
func reportDirectBanned(p *Pass, call *ast.CallExpr, f *types.Func, kind string) {
	switch kind {
	case "nethttp":
		p.Reportf(call.Pos(), "%s called while writeMu is held; the write lock must never wait on the network", f.FullName())
	case "fsync":
		p.Reportf(call.Pos(), "(*os.File).Sync while writeMu is held; fsync belongs outside the write lock")
	}
}

// bannedRationale states why each banned-call kind is banned under writeMu.
func bannedRationale(kind string) string {
	switch kind {
	case "nethttp":
		return "the write lock must never wait on the network"
	case "fsync":
		return "fsync belongs outside the write lock"
	}
	return "banned while writeMu is held"
}

// recvIs reports whether f is a method on (a pointer to) pkgTail.name.
func recvIs(f *types.Func, pkgTail, name string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgTail, name)
}
