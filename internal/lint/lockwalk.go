package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// This file is the one critical-section walk. Each function body is
// walked once, after the engine's fixpoint, tracking which lock domains
// are held at every statement; the walk records what the three lock
// analyzers ask about — every acquire and every park (a point where the
// goroutine can block) together with the holds in force — and they are
// filters over those records: lockhold reports parks under a hold,
// lockorder builds its graph from the acquires, lockguard reads the
// per-function Acquires set the walk's classifier (lockOpDomain) fed.
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
// between is a may-hold. May-holds still order — they produce graph
// edges, drawn dashed — but never report, which is what keeps the
// simtime.Queue idiom (unlock one of two mutexes, then park) clean. The
// price is the may-hold limit: a lock taken on only some paths
// (`if c { mu.Lock() }`) is never reported, even where the same
// condition guards the park.

// hold is one lock domain held at a program point.
type hold struct {
	domain string
	text   string    // how the lock reads where it was taken: "s.mu"; the domain when a helper opened the region
	pos    token.Pos // acquire site
	may    bool      // held on only some paths to this point
	owner  ast.Expr  // mutex owner expression at a direct acquire; nil via helper
}

// holds is the walk's state: domain → hold. A nil map means the point
// is unreachable (the code before it returned or panicked).
type holds map[string]hold

// sorted returns the holds in domain order, must-holds only on request.
func (h holds) sorted(mustOnly bool) []hold {
	var out []hold
	for _, d := range sortedKeys(h) {
		if !mustOnly || !h[d].may {
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

// acquireSite is one lock acquire reached with locks held: a direct
// Lock/RLock, or a call whose callee (transitively) acquires domain.
type acquireSite struct {
	pos    token.Pos
	domain string
	callee *FuncNode // nil at a direct acquire
	held   []hold    // in force just before, may-holds included
}

// parkSite is one point where the goroutine can block with locks
// must-held.
type parkSite struct {
	pos  token.Pos
	what string // "channel send", "blocking call s.wait ((*store).wait: channel receive)"
	wait bool   // the park waits for another goroutine's signal: a receive, a select, a Wait, a sleep
	held []hold
}

// loopSite is one same-domain lock a loop body leaves held for its next
// iteration.
type loopSite struct {
	hold    hold
	rangeX  ast.Expr // the ranged expression; nil for a for loop
	loopPos token.Pos
}

// lockFacts is what one function body's walk recorded.
type lockFacts struct {
	acquires []acquireSite
	parks    []parkSite
	loops    []loopSite
}

// lockFacts returns n's critical-section records, walking the body on
// first use. A function that acquires nothing, even through its
// callees, never holds a lock and is not walked.
func (e *Engine) lockFacts(n *FuncNode) *lockFacts {
	if n.locks.facts == nil {
		n.locks.facts = &lockFacts{}
		if len(n.Acquires) > 0 {
			w := &lockWalker{e: e, n: n, facts: n.locks.facts}
			w.block(n.body().List, holds{})
		}
	}
	return n.locks.facts
}

// lockWalker is one function body's walk.
type lockWalker struct {
	e       *Engine
	n       *FuncNode
	facts   *lockFacts
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
// and from every break; a body that leaves a lock held for the next
// iteration is recorded for the ascending-ID rule.
func (w *lockWalker) loop(body *ast.BlockStmt, post ast.Stmt, hasCond bool, rangeX ast.Expr, loopPos token.Pos, held holds) holds {
	t := w.push(true)
	end := w.block(body.List, maps.Clone(held))
	w.pop()
	next := mergeArms(append(t.continues, end)...)
	if next != nil && post != nil {
		next = w.stmt(post, next)
	}
	for _, h := range next.sorted(true) {
		if _, ok := held[h.domain]; !ok {
			w.facts.loops = append(w.facts.loops, loopSite{hold: h, rangeX: rangeX, loopPos: loopPos})
		}
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
		w.park(x.Pos(), "channel send", false, held)
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
		return w.loop(x.Body, x.Post, x.Cond != nil, nil, x.For, held)
	case *ast.RangeStmt:
		if t := pkg.TypesInfo.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.park(x.For, "range over channel", true, held)
			}
		}
		w.expr(x.X, held)
		return w.loop(x.Body, nil, true, x.X, x.For, held)
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
			w.park(x.Select, "select with no default", true, held)
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
				w.park(x.Pos(), "channel receive", true, held)
			}
		case *ast.CallExpr:
			w.call(x, held)
		}
		return true
	})
}

// call applies one call: a direct Lock/Unlock, a park if the callee
// blocks, an acquire per domain the callee takes, and the region its
// balance opens (lockVolume) or closes (an unlock helper).
func (w *lockWalker) call(call *ast.CallExpr, held holds) {
	pkg := w.n.Pkg
	if d, delta := lockOpDomain(pkg, call); delta != 0 {
		if delta < 0 {
			delete(held, d)
			return
		}
		w.acquire(call.Pos(), nil, d, held)
		if h, ok := held[d]; !ok || h.may {
			owner := call.Fun.(*ast.SelectorExpr).X
			held[d] = hold{domain: d, text: exprText(pkg.Fset, owner), pos: call.Pos(), owner: owner}
		}
		return
	}
	if len(held) > 0 {
		if reason, blocks := w.e.BlockReason(pkg, call); blocks {
			w.park(call.Pos(), fmt.Sprintf("blocking call %s (%s)", exprText(pkg.Fset, call.Fun), reason),
				waitRoot(calleeObj(pkg, call.Fun)), held)
		}
	}
	callee := w.e.resolveCallee(pkg, call.Fun)
	if callee == nil {
		return
	}
	w.acquire(call.Pos(), callee, "", held)
	for _, d := range sortedKeys(callee.locks.net) {
		bal := callee.locks.net[d]
		if h, ok := held[d]; bal > 0 && (!ok || h.may) {
			held[d] = hold{domain: d, text: d, pos: call.Pos()}
		} else if bal < 0 {
			delete(held, d)
		}
	}
}

// acquire records an acquire of domain direct, or of every domain
// callee takes, when anything is held.
func (w *lockWalker) acquire(pos token.Pos, callee *FuncNode, direct string, held holds) {
	if len(held) == 0 {
		return
	}
	snap, domains := held.sorted(false), []string{direct}
	if callee != nil {
		domains = sortedKeys(callee.Acquires)
	}
	for _, d := range domains {
		w.facts.acquires = append(w.facts.acquires, acquireSite{pos: pos, domain: d, callee: callee, held: snap})
	}
}

func (w *lockWalker) park(pos token.Pos, what string, wait bool, held holds) {
	if must := held.sorted(true); len(must) > 0 {
		w.facts.parks = append(w.facts.parks, parkSite{pos: pos, what: what, wait: wait, held: must})
	}
}

// waitRoot reports whether fn is a wait-for-a-signal primitive.
// Blocking I/O (rpc2, WAL, sftp) parks too, but no other goroutine of
// this program has to act for it to end.
func waitRoot(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	return path == "sync" && name == "Wait" ||
		(path == "time" || pathIs(path, "internal/simtime")) && name == "Sleep"
}
