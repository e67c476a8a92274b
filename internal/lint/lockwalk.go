package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
)

// This file is the one critical-section walk. Each function body is
// walked after the engine's fixpoint, tracking which lock domains are
// held at every statement, and records every park (a point where the
// goroutine can block) together with the locks must-held there;
// lockhold is a filter over those records.
//
// A region opens at a direct Lock/RLock or at a call to a helper whose
// Lock-minus-Unlock balance is positive (lockVolume), and closes at an
// Unlock/RUnlock or a negative-balance helper. A deferred unlock keeps
// the region open to the end of the function.
//
// Control flow is merged by one rule (mergeArms). An arm that ends in
// return or panic contributes nothing to the code after the branch. A
// lock is must-held after a branch only if it is must-held at the end
// of every arm that continues (the implicit empty else included), and
// it is released if every continuing arm released it; anything in
// between is a may-hold. May-holds never report, which is what keeps
// the simtime.Queue idiom (unlock one of two mutexes, then park) clean.
// The price is the may-hold limit: a lock taken on only some paths
// (`if c { mu.Lock() }`) is never reported, even where the same
// condition guards the park. A lock taken in a loop body is one such
// lock, since the loop may run zero times: it is a may-hold after the
// loop, which is why the server's checkpointLocked, holding every
// volume.mu across the snapshot write, reports nothing.

// hold is one lock domain held at a program point.
type hold struct {
	text string    // how the lock reads where it was taken: "s.mu"; the domain when a helper opened the region
	pos  token.Pos // acquire site
	may  bool      // held on only some paths to this point
}

// holds is the walk's state: domain → hold. A nil map means the point
// is unreachable (the code before it returned or panicked).
type holds map[string]hold

// must returns the must-holds in domain order.
func (h holds) must() []hold {
	var out []hold
	for _, d := range sortedKeys(h) {
		if !h[d].may {
			out = append(out, h[d])
		}
	}
	return out
}

// mergeArms is the branch rule: the state after control flow rejoins
// from arms (nil arms left by return or panic; none left means the
// point after the branch is unreachable too).
func mergeArms(arms ...holds) holds {
	var out holds
	for _, arm := range arms {
		if arm == nil {
			continue
		}
		if out == nil {
			out = holds{}
		}
		for d, h := range arm {
			if _, ok := out[d]; !ok {
				out[d] = h
			}
		}
	}
	for d, h := range out {
		for _, arm := range arms {
			if a, ok := arm[d]; arm != nil && (!ok || a.may) {
				h.may = true
			}
		}
		out[d] = h
	}
	return out
}

// parkSite is one point where the goroutine can block with locks
// must-held.
type parkSite struct {
	pos  token.Pos
	what string // "channel send", "blocking call s.wait ((*store).wait: channel receive)"
	held []hold
}

// parks walks n's body and returns its park sites. A function that
// acquires nothing, even through its callees, never holds a lock and is
// not walked.
func (e *Engine) parks(n *FuncNode) []parkSite {
	if len(n.Acquires) == 0 {
		return nil
	}
	w := &lockWalker{e: e, n: n}
	w.block(n.body().List, holds{})
	return w.parks
}

// lockWalker is one function body's walk.
type lockWalker struct {
	e       *Engine
	n       *FuncNode
	parks   []parkSite
	targets []*jumpTarget // enclosing loops, switches and selects, innermost last
}

// jumpTarget collects the states unlabeled break and continue
// statements carry out of an enclosing statement.
type jumpTarget struct {
	loop              bool
	breaks, continues []holds
}

func (w *lockWalker) push(loop bool) *jumpTarget {
	t := &jumpTarget{loop: loop}
	w.targets = append(w.targets, t)
	return t
}

func (w *lockWalker) pop() { w.targets = w.targets[:len(w.targets)-1] }

// jump hands held to the statement an unlabeled break or continue
// leaves for.
func (w *lockWalker) jump(tok token.Token, held holds) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		switch t := w.targets[i]; {
		case tok == token.BREAK:
			t.breaks = append(t.breaks, held)
			return
		case tok == token.CONTINUE && t.loop:
			t.continues = append(t.continues, held)
			return
		}
	}
}

func (w *lockWalker) block(stmts []ast.Stmt, held holds) holds {
	for _, s := range stmts {
		if held == nil {
			break
		}
		held = w.stmt(s, held)
	}
	return held
}

// arms walks each clause body of a switch or select from a copy of held
// and merges them; a statement with no default clause can also run no
// clause at all.
func (w *lockWalker) arms(body *ast.BlockStmt, exhaustive bool, held holds) holds {
	t := w.push(false)
	var ends []holds
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cc.List == nil
			ends = append(ends, w.block(cc.Body, maps.Clone(held)))
		case *ast.CommClause:
			ends = append(ends, w.block(cc.Body, maps.Clone(held)))
		}
	}
	w.pop()
	if !exhaustive {
		ends = append(ends, held)
	}
	return mergeArms(append(ends, t.breaks...)...)
}

// loop walks a for/range body. The code after the loop is reached from
// the loop's condition — before the first iteration or after any one —
// and from every break.
func (w *lockWalker) loop(body *ast.BlockStmt, post ast.Stmt, hasCond bool, held holds) holds {
	t := w.push(true)
	end := w.block(body.List, maps.Clone(held))
	w.pop()
	next := mergeArms(append(t.continues, end)...)
	if next != nil && post != nil {
		next = w.stmt(post, next)
	}
	var exits []holds
	if hasCond {
		exits = []holds{held, next}
	}
	return mergeArms(append(exits, t.breaks...)...)
}

func (w *lockWalker) stmt(stmt ast.Stmt, held holds) holds {
	pkg := w.n.Pkg
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		w.expr(x.X, held)
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, builtin := pkg.TypesInfo.Uses[id].(*types.Builtin); builtin {
					return nil
				}
			}
		}
	case *ast.ReturnStmt:
		w.expr(x, held)
		return nil
	case *ast.BranchStmt:
		// A goto or a labeled break/continue leaves for a statement this
		// walk does not resolve; like return, it contributes nothing.
		if x.Tok == token.FALLTHROUGH {
			return held
		}
		if x.Label == nil {
			w.jump(x.Tok, held)
		}
		return nil
	case *ast.DeferStmt:
		// A deferred unlock — direct, or through a helper or literal
		// whose balance is negative — runs at return: the region stays
		// open to the end of the function.
		if _, delta := lockOpDomain(pkg, x.Call); delta < 0 {
			return held
		}
		if callee := w.e.resolveCallee(pkg, x.Call.Fun); callee != nil {
			for _, bal := range callee.locks.net {
				if bal < 0 {
					return held
				}
			}
		}
		w.expr(x.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine locks and parks on its own stack; only
		// the arguments are evaluated here.
		for _, arg := range x.Call.Args {
			w.expr(arg, held)
		}
	case *ast.SendStmt:
		w.park(x.Pos(), "channel send", held)
		w.expr(x.Chan, held)
		w.expr(x.Value, held)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, held)
	case *ast.BlockStmt:
		return w.block(x.List, held)
	case *ast.IfStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.expr(x.Cond, held)
		then, els := w.block(x.Body.List, maps.Clone(held)), held
		if x.Else != nil {
			els = w.stmt(x.Else, maps.Clone(held))
		}
		return mergeArms(then, els)
	case *ast.ForStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.expr(x.Cond, held)
		return w.loop(x.Body, x.Post, x.Cond != nil, held)
	case *ast.RangeStmt:
		if t := pkg.TypesInfo.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.park(x.For, "range over channel", held)
			}
		}
		w.expr(x.X, held)
		return w.loop(x.Body, nil, true, held)
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.expr(x.Tag, held)
		return w.arms(x.Body, false, held)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			held = w.stmt(x.Init, held)
		}
		w.expr(x.Assign, held)
		return w.arms(x.Body, false, held)
	case *ast.SelectStmt:
		// The comm clauses are covered by the select-level park (and
		// never block when a default exists); a select always runs one
		// of its clauses.
		if !selectHasDefault(x) {
			w.park(x.Select, "select with no default", held)
		}
		return w.arms(x.Body, true, held)
	default:
		w.expr(stmt, held)
	}
	return held
}

// expr applies, in source order, the lock effects of every call and
// receive under root. Nested function literals run on their own
// schedule and are skipped; if one is invoked right here the call edge
// already carries its effects.
func (w *lockWalker) expr(root ast.Node, held holds) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.park(x.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			w.call(x, held)
		}
		return true
	})
}

// call applies one call: a direct Lock/Unlock, a park if the callee
// blocks, and the region the callee's balance opens (lockVolume) or
// closes (an unlock helper).
func (w *lockWalker) call(call *ast.CallExpr, held holds) {
	pkg := w.n.Pkg
	if d, delta := lockOpDomain(pkg, call); delta != 0 {
		if delta < 0 {
			delete(held, d)
		} else if h, ok := held[d]; !ok || h.may {
			held[d] = hold{text: exprText(pkg.Fset, call.Fun.(*ast.SelectorExpr).X), pos: call.Pos()}
		}
		return
	}
	if len(held) > 0 {
		if reason, blocks := w.e.BlockReason(pkg, call); blocks {
			w.park(call.Pos(), fmt.Sprintf("blocking call %s (%s)", exprText(pkg.Fset, call.Fun), reason), held)
		}
	}
	callee := w.e.resolveCallee(pkg, call.Fun)
	if callee == nil {
		return
	}
	for d, bal := range callee.locks.net {
		if h, ok := held[d]; bal > 0 && (!ok || h.may) {
			held[d] = hold{text: d, pos: call.Pos()}
		} else if bal < 0 {
			delete(held, d)
		}
	}
}

func (w *lockWalker) park(pos token.Pos, what string, held holds) {
	if must := held.must(); len(must) > 0 {
		w.parks = append(w.parks, parkSite{pos: pos, what: what, held: must})
	}
}

// exprText renders an expression for diagnostics.
func exprText(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, expr); err != nil {
		return "?"
	}
	return buf.String()
}
