package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the global lock-acquisition ordering graph and reports
// every acquisition that closes a cycle — a potential deadlock, even when
// the two halves of the inversion live in different packages and only meet
// through callees.
//
// An order edge A → B is recorded whenever lock class B is acquired while a
// lock of class A is held: directly, via a callee whose summary says it
// acquires B, or via a helper that returns still holding B. Lock classes
// are instance-blind (pkg.Type.field), so taking a second lock of the class
// already held — instance chaining, such as a linked list's node locks taken
// in list order — is not an edge: same-class ordering is an instance
// property, outside the class-level order graph.
type LockOrder struct{}

func (LockOrder) Name() string { return "lockorder" }

func (LockOrder) Doc() string {
	return "no cycles in the global lock-acquisition order across serve, obs, repl, and router mutexes (deadlock freedom)"
}

func (LockOrder) Interprocedural() bool { return true }

// Run is satisfied per the Analyzer interface; LockOrder does all its work
// in RunWhole, once over the program.
func (LockOrder) Run(p *Pass) {}

type orderEdge struct {
	from, to string
	pos      token.Pos // acquisition (or call) site in the walked function
	chain    []string  // call path from the walked function to the acquisition
}

func (LockOrder) RunWhole(p *Pass) {
	prog := p.Prog
	edges := map[[2]string]*orderEdge{}
	addEdge := func(from, to string, pos token.Pos, chain []string) {
		if from == to {
			return // same-class chaining is instance ordering, not class ordering
		}
		key := [2]string{from, to}
		if _, seen := edges[key]; !seen {
			edges[key] = &orderEdge{from: from, to: to, pos: pos, chain: chain}
		}
	}

	ids := make([]string, 0, len(prog.Graph.Nodes))
	for id := range prog.Graph.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic witness selection
	for _, id := range ids {
		n := prog.Graph.Nodes[id]
		walkLocks(n.Pkg, n.Body(), lockHooks{
			acquire: func(class string, pos token.Pos, held []string) {
				for _, h := range held {
					addEdge(h, class, pos, []string{n.Short})
				}
			},
			call: func(call *ast.CallExpr, _ *types.Func, held []string, spawn bool) {
				if spawn || len(held) == 0 {
					return
				}
				for _, e := range n.EdgesAt(call.Pos()) {
					if e.Spawn {
						continue
					}
					sum, ok := prog.Summaries[e.Callee]
					if !ok {
						continue
					}
					for class, w := range sum.Acquires {
						for _, h := range held {
							addEdge(h, class, call.Pos(), append([]string{n.Short}, w.Chain...))
						}
					}
				}
			},
			calleeHeld: func(call *ast.CallExpr) []string {
				var out []string
				for _, e := range n.EdgesAt(call.Pos()) {
					if e.Spawn || e.Defer {
						continue
					}
					if sum, ok := prog.Summaries[e.Callee]; ok {
						out = append(out, sum.HeldAtExit...)
					}
				}
				return out
			},
		})
	}

	// Adjacency over lock classes; an edge A→B closes a cycle when B can
	// reach A again.
	adj := map[string][]string{}
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, next := range adj {
		sort.Strings(next)
	}

	keys := make([][2]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		e := edges[key]
		back := shortestPath(adj, e.to, e.from)
		if back == nil {
			continue
		}
		cycle := append([]string{e.from}, back...)
		p.Reportf(e.pos, "potential deadlock: acquiring %s while holding %s closes lock-order cycle %s (acquisition path: %s)",
			e.to, e.from, strings.Join(cycle, " → "), strings.Join(e.chain, " → "))
	}
}

// shortestPath returns a BFS path from → … → to over adj, or nil.
func shortestPath(adj map[string][]string, from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range adj[cur] {
			if _, seen := prev[nxt]; seen {
				continue
			}
			prev[nxt] = cur
			if nxt == to {
				var path []string
				for at := nxt; at != ""; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return path
			}
			queue = append(queue, nxt)
		}
	}
	return nil
}
