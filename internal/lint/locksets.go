package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the engine's lockset summary. Every node learns which
// lock domains it may acquire — directly or through any chain of static
// calls — and its direct Lock-minus-Unlock balance per domain, so
// `lockVolume`-style helpers that hand a locked object back to the
// caller are recognized as opening a critical section at the call site.
// The critical-section walk (lockwalk.go) and lockguard consume these
// summaries. lockOpDomain is the one classifier of what a lock
// operation is: the naming convention (`mu` / `*Mu` suffix) on a
// sync.Mutex or sync.RWMutex — RLock and RUnlock count like Lock and
// Unlock, since readers still deadlock against writers.

// lockSummary is the per-node lockset state beyond FuncNode.Acquires.
type lockSummary struct {
	// net: direct Lock-minus-Unlock balance per domain, a directly
	// deferred literal's operations included. net > 0 means
	// calling this function opens a critical section the caller must
	// close (a lockVolume-style helper); net < 0 closes one.
	net map[string]int
	// calls: static callees for lockset propagation. Unlike
	// FuncNode.Calls this list excludes the immediate targets of `go`
	// statements: a spawned goroutine acquires on its own stack, and
	// smearing its locks onto the spawner would invent holds that never
	// happen.
	calls []*FuncNode
}

// lockDomain renders the lock domain of a mutex expression: the owning
// named type and field ("server.volume.mu"), or "pkg.name" for a
// package-level or local mutex variable. Returns "" when the
// expression does not resolve.
func lockDomain(pkg *Package, expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[x]; ok {
			t := sel.Recv()
			for {
				p, ok := t.(*types.Pointer)
				if !ok {
					break
				}
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		// Qualified package-level variable: wire.encMu.
		if v, ok := pkg.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		if v, ok := pkg.TypesInfo.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + x.Name
		}
	case *ast.ParenExpr:
		return lockDomain(pkg, x.X)
	}
	return ""
}

// lockOpDomain classifies a call as Lock/RLock (+1) or Unlock/RUnlock
// (-1) on a conventionally named sync mutex and returns its domain.
// delta is 0 when the call is not a lock operation.
func lockOpDomain(pkg *Package, call *ast.CallExpr) (domain string, delta int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0
	}
	t, d := pkg.TypesInfo.Types[sel.X].Type, lockDomain(pkg, sel.X)
	if t == nil || d == "" || !isMutexField(d[strings.LastIndex(d, ".")+1:], t) {
		return "", 0
	}
	return d, delta
}

// scanLocksets records a node's direct lockset facts: acquires, lock
// balance, and propagation callees.
func (e *Engine) scanLocksets(n *FuncNode) {
	pkg := n.Pkg
	n.Acquires = make(map[string]bool)
	n.locks.net = make(map[string]int)

	// Immediate `go f()` call expressions are excluded from lockset
	// propagation (the goroutine locks on its own stack). The walk is
	// preorder, so a go statement is seen before its call.
	spawned := make(map[*ast.CallExpr]bool)
	n.inspectOwn(func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			spawned[x.Call] = true
		case *ast.DeferStmt:
			// A directly deferred literal runs before this function
			// returns, so its lock operations are this function's too.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if d, delta := lockOpDomain(pkg, call); delta != 0 {
							n.locks.net[d] += delta
						}
					}
					_, nested := m.(*ast.FuncLit)
					return !nested
				})
			}
		case *ast.CallExpr:
			if d, delta := lockOpDomain(pkg, x); delta != 0 {
				n.locks.net[d] += delta
				if delta > 0 {
					n.Acquires[d] = true
				}
				return true
			}
			if !spawned[x] {
				if callee := e.resolveCallee(pkg, x.Fun); callee != nil {
					n.locks.calls = append(n.locks.calls, callee)
				}
			}
		}
		return true
	})
	n.locks.calls = dedupeNodes(n.locks.calls)
}

// propagateLocksets merges one step of callee Acquires into n and
// reports whether anything changed. Called from the engine fixpoint.
func (n *FuncNode) propagateLocksets() bool {
	changed := false
	for _, c := range n.locks.calls {
		for d := range c.Acquires {
			if _, ok := n.Acquires[d]; !ok {
				n.Acquires[d] = false
				changed = true
			}
		}
	}
	return changed
}

// sortedKeys returns a map's keys in lexicographic order, for
// deterministic reporting.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
