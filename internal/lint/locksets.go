package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the engine's fourth-generation effect: per-function
// lockset summaries. Every node learns which lock domains it may
// acquire — directly or through any chain of static calls — together
// with the via-chain that reaches the Lock call, its direct
// Lock-minus-Unlock balance per domain (so `lockVolume`-style helpers
// that hand a locked object back to the caller are recognized as
// opening a critical section at the call site), whether it returns a
// slice it provably sorted (the ascending-ID registry idiom), and
// whether it can signal a waiter (channel send or close, WaitGroup
// Done, Cond Signal/Broadcast). The critical-section walk (lockwalk.go)
// and, through it, the three lock analyzers consume these summaries.
// lockOpDomain is the one classifier of what a lock operation is: the
// naming convention (`mu` / `*Mu` suffix) on a sync.Mutex or
// sync.RWMutex — RLock and RUnlock count like Lock and Unlock, since
// readers still deadlock against writers.

// lockSummary is the per-node lockset state beyond FuncNode.Acquires.
type lockSummary struct {
	// net: direct Lock-minus-Unlock balance per domain. net > 0 means
	// calling this function opens a critical section the caller must
	// close (a lockVolume-style helper); net < 0 closes one.
	net map[string]int
	// calls: static callees for lockset propagation. Unlike
	// FuncNode.Calls this list excludes the immediate targets of `go`
	// statements: a spawned goroutine acquires on its own stack, and
	// smearing its locks onto the spawner would invent held-while
	// edges that never happen.
	calls []*FuncNode
	// sortedVars: local variables passed to a sort call (sort.Slice,
	// sort.Sort, slices.Sort, ...) or assigned from an ordered
	// provider, with the position where the ordering was established.
	sortedVars map[types.Object]token.Pos
	// retObjs: identifiers this function returns, for the
	// ordered-provider fixpoint.
	retObjs []types.Object
	// providerAssigns: `x := f()` assignments whose callee resolved,
	// so x becomes sorted once f proves to be an ordered provider.
	providerAssigns []providerAssign
	// ordered: the function returns a slice it provably sorted — an
	// ordered provider; ranging over its result satisfies the
	// ascending-ID rule.
	ordered bool
	// signals: the function (transitively) performs a channel send or
	// close, a WaitGroup.Done, or a Cond.Signal/Broadcast — it can
	// unblock a parked waiter.
	signals    bool
	signalsVia string
	// facts: the critical-section walk's records (lockwalk.go), filled
	// on first use.
	facts *lockFacts
}

type providerAssign struct {
	obj    types.Object
	callee *FuncNode
	pos    token.Pos
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

// sortCallVar recognizes a sort call and returns the identifier being
// sorted: sort.Slice/SliceStable/Sort/Stable/Strings/Ints(x, ...) and
// slices.Sort/SortFunc/SortStableFunc(x, ...).
func sortCallVar(pkg *Package, call *ast.CallExpr) *ast.Ident {
	fn := calleeObj(pkg, call.Fun)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	path, name := fn.Pkg().Path(), fn.Name()
	ok := false
	switch path {
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints":
			ok = true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			ok = true
		}
	}
	if !ok {
		return nil
	}
	id, _ := call.Args[0].(*ast.Ident)
	return id
}

// signalRoot classifies fn as a waiter-unblocking primitive.
func signalRoot(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Done":
		return "sync.WaitGroup.Done"
	case "Signal", "Broadcast":
		return "sync.Cond." + fn.Name()
	}
	return ""
}

// scanLocksets records a node's direct lockset facts: acquires,
// lock balance, propagation callees, sorted variables, ordered-provider
// returns, and signal sites.
func (e *Engine) scanLocksets(n *FuncNode) {
	pkg := n.Pkg
	n.Acquires = make(map[string]string)
	n.locks.net = make(map[string]int)
	n.locks.sortedVars = make(map[types.Object]token.Pos)

	// Immediate `go f()` call expressions: excluded from lockset
	// propagation (the goroutine locks on its own stack).
	spawned := make(map[*ast.CallExpr]bool)
	n.inspectOwn(func(node ast.Node) bool {
		if g, ok := node.(*ast.GoStmt); ok {
			spawned[g.Call] = true
		}
		return true
	})

	n.inspectOwn(func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if d, delta := lockOpDomain(pkg, x); delta != 0 {
				n.locks.net[d] += delta
				if delta > 0 {
					n.Acquires[d] = ""
				}
				return true
			}
			if id := sortCallVar(pkg, x); id != nil {
				if obj := pkg.TypesInfo.Uses[id]; obj != nil {
					if _, ok := n.locks.sortedVars[obj]; !ok {
						n.locks.sortedVars[obj] = x.Pos()
					}
				}
			}
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, blt := pkg.TypesInfo.Uses[id].(*types.Builtin); blt && !n.locks.signals {
					n.locks.signals, n.locks.signalsVia = true, "close(chan)"
				}
			}
			if r := signalRoot(calleeObj(pkg, x.Fun)); r != "" && !n.locks.signals {
				n.locks.signals, n.locks.signalsVia = true, r
			}
			if !spawned[x] {
				if callee := e.resolveCallee(pkg, x.Fun); callee != nil {
					n.locks.calls = append(n.locks.calls, callee)
				}
			}
		case *ast.SendStmt:
			if !n.locks.signals {
				n.locks.signals, n.locks.signalsVia = true, "channel send"
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				call, ok := x.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := x.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.TypesInfo.Defs[id]
				if obj == nil {
					obj = pkg.TypesInfo.Uses[id]
				}
				callee := e.resolveCallee(pkg, call.Fun)
				if obj != nil && callee != nil {
					n.locks.providerAssigns = append(n.locks.providerAssigns,
						providerAssign{obj: obj, callee: callee, pos: x.Pos()})
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if id, ok := r.(*ast.Ident); ok {
					if obj := pkg.TypesInfo.Uses[id]; obj != nil {
						n.locks.retObjs = append(n.locks.retObjs, obj)
					}
				}
			}
		}
		return true
	})
	n.locks.calls = dedupeNodes(n.locks.calls)
}

// propagateLocksets merges one step of callee lockset facts into n and
// reports whether anything changed. Called from the engine fixpoint, so
// Acquires chains, ordered-provider bits, and signal bits all reach a
// deterministic fixed point together with the other effects.
func (n *FuncNode) propagateLocksets() bool {
	changed := false
	for _, c := range n.locks.calls {
		for _, d := range sortedKeys(c.Acquires) {
			if _, ok := n.Acquires[d]; ok {
				continue
			}
			chain := c.Name
			if via := c.Acquires[d]; via != "" {
				chain += ": " + via
			}
			n.Acquires[d] = chain
			changed = true
		}
		if c.locks.signals && !n.locks.signals {
			n.locks.signals = true
			n.locks.signalsVia = c.Name + ": " + c.locks.signalsVia
			changed = true
		}
	}
	for _, pa := range n.locks.providerAssigns {
		if pa.callee.locks.ordered {
			if _, ok := n.locks.sortedVars[pa.obj]; !ok {
				n.locks.sortedVars[pa.obj] = pa.pos
				changed = true
			}
		}
	}
	if !n.locks.ordered {
		for _, obj := range n.locks.retObjs {
			if _, ok := n.locks.sortedVars[obj]; ok {
				n.locks.ordered = true
				changed = true
				break
			}
		}
	}
	return changed
}

// sortedKeys returns a map's keys in lexicographic order, for
// deterministic propagation and reporting.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
