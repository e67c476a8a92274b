package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Lockorder is the whole-program lock-order and deadlock-cycle
// analyzer. It reads the acquire, loop and park records of the
// critical-section walk (lockwalk.go) to build the static lock-order
// graph: an edge A → B means some function holds a lock of domain A
// while acquiring one of domain B, possibly through a chain of static
// calls crossing any number of package boundaries.
//
// Four queries run over that graph and the walk itself:
//
//  1. every cycle in the graph is a potential deadlock, reported once
//     with a witness acquire site for each edge in the cycle;
//  2. a (transitive) acquire of a domain already held is reported at
//     the acquire site: on the same instance it self-deadlocks, on two
//     instances it is an unordered multi-lock;
//  3. a loop that accumulates same-domain locks across iterations
//     (lock without unlock in the body) must be provably ordered —
//     the collection sorted by a sort call before the loop, or ranged
//     off an ordered provider (a function that returns a slice it
//     sorted, like the server's volumesByID) — otherwise two such
//     loops can interleave in opposite orders: the ascending-ID rule;
//  4. a lock held across a direct channel receive, select, WaitGroup
//     Wait, or clock sleep is a cross-primitive deadlock shape when
//     some other function needs the same domain on its way to
//     signalling (send, close, Done, Cond.Signal): the holder parks
//     waiting for a signal the signaller can never deliver.
//
// Only must-holds produce the same-domain and cross-primitive findings;
// a may-hold (see the walk's merge rule) still contributes an ordering
// edge, drawn dashed.
type Lockorder struct {
	eng  *Engine
	done bool

	edges    map[string]*lockEdge // "from\x00to" → first witness
	findings []Finding            // global, filtered per package in Analyze
}

// lockEdge is one lock-order graph edge with its first witness.
type lockEdge struct {
	from, to string
	pos      token.Position // acquire site of `to` while `from` is held
	via      string         // call chain reaching the acquire ("" = direct)
	may      bool           // the held side was a may-hold
}

// NewLockorder returns the analyzer; the engine is bound by Run.
func NewLockorder() *Lockorder { return &Lockorder{} }

// Name implements Analyzer.
func (*Lockorder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (*Lockorder) Doc() string {
	return "whole-program lock-order graph: deadlock cycles, unordered same-domain multi-locks (ascending-ID rule), locks held across receive/Wait/sleep a signaller needs"
}

// Bind implements interprocAnalyzer.
func (l *Lockorder) Bind(e *Engine) { l.eng = e }

// Analyze implements Analyzer. The graph and findings are global,
// computed once over every package the engine was built from; each
// package reports the findings anchored in its own files.
func (l *Lockorder) Analyze(pkg *Package) []Finding {
	if l.eng == nil {
		l.Bind(NewEngine([]*Package{pkg}))
	}
	l.compute()
	mine := make(map[string]bool, len(pkg.Files))
	for _, f := range pkg.Files {
		mine[pkg.Fset.Position(f.Pos()).Filename] = true
	}
	var out []Finding
	for _, f := range l.findings {
		if mine[f.Pos.Filename] {
			out = append(out, f)
		}
	}
	return out
}

// compute walks every node once and derives the global findings.
func (l *Lockorder) compute() {
	if l.done {
		return
	}
	l.done = true
	l.edges = make(map[string]*lockEdge)
	for _, n := range l.eng.nodes {
		facts := l.eng.lockFacts(n)
		for _, a := range facts.acquires {
			l.acquired(n, a)
		}
		for _, s := range facts.loops {
			if !l.orderedIteration(n, s) {
				l.report(n.Pkg.Fset.Position(s.hold.pos),
					"loop in %s accumulates %s locks across iterations in unproven order; sort the slice before the loop or range an ordered provider (ascending-ID rule)",
					n.Name, s.hold.domain)
			}
		}
	}
	l.cycleFindings()
	l.crossPrimFindings()
}

// addEdge records a lock-order edge, keeping the first witness.
func (l *Lockorder) addEdge(from, to string, pos token.Position, via string, may bool) {
	key := from + "\x00" + to
	if _, ok := l.edges[key]; ok {
		return
	}
	l.edges[key] = &lockEdge{from: from, to: to, pos: pos, via: via, may: may}
}

func (l *Lockorder) report(pos token.Position, format string, args ...any) {
	l.findings = append(l.findings, Finding{
		Pos:      pos,
		Analyzer: "lockorder",
		Message:  fmt.Sprintf(format, args...),
	})
}

// cycleFindings reports every strongly connected component of the
// lock-order graph (self-loops excluded; those surface as same-domain
// findings at their sites) as one potential deadlock.
func (l *Lockorder) cycleFindings() {
	adj := make(map[string][]string)
	domains := map[string]bool{}
	for _, key := range sortedKeys(l.edges) {
		e := l.edges[key]
		if e.from == e.to {
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
		domains[e.from], domains[e.to] = true, true
	}
	order := make([]string, 0, len(domains))
	for d := range domains {
		order = append(order, d)
	}
	sort.Strings(order)

	for _, scc := range stronglyConnected(order, adj) {
		if len(scc) < 2 {
			continue
		}
		in := make(map[string]bool, len(scc))
		for _, d := range scc {
			in[d] = true
		}
		var internal []*lockEdge
		for _, key := range sortedKeys(l.edges) {
			e := l.edges[key]
			if e.from != e.to && in[e.from] && in[e.to] {
				internal = append(internal, e)
			}
		}
		anchor := internal[0].pos
		for _, e := range internal[1:] {
			if posLess(e.pos, anchor) {
				anchor = e.pos
			}
		}
		parts := make([]string, len(internal))
		for i, e := range internal {
			via := ""
			if e.via != "" {
				via = " via " + e.via
			}
			parts[i] = fmt.Sprintf("%s -> %s at %s:%d%s",
				e.from, e.to, filepath.Base(e.pos.Filename), e.pos.Line, via)
		}
		l.report(anchor, "potential deadlock: lock-order cycle between %s: %s; pick one global order and release before acquiring against it",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}

// crossPrimFindings reports every wait reached with a lock must-held
// that some other function needs on its way to signalling a waiter.
func (l *Lockorder) crossPrimFindings() {
	for _, n := range l.eng.nodes {
		for _, p := range l.eng.lockFacts(n).parks {
			if !p.wait {
				continue
			}
			for _, h := range p.held {
				for _, g := range l.eng.nodes {
					if _, ok := g.Acquires[h.domain]; !ok || g == n || !g.locks.signals {
						continue
					}
					l.report(n.Pkg.Fset.Position(p.pos), "%s held across %s in %s, but %s acquires %s on its way to signalling (%s): the holder can park waiting for a signal that needs its own lock",
						h.domain, p.what, n.Name, g.Name, h.domain, g.locks.signalsVia)
					break
				}
			}
		}
	}
}

// stronglyConnected returns the SCCs of the graph (Kosaraju), each
// sorted internally, in deterministic order.
func stronglyConnected(order []string, adj map[string][]string) [][]string {
	seen := make(map[string]bool)
	var finish []string
	var dfs1 func(v string)
	dfs1 = func(v string) {
		seen[v] = true
		for _, w := range adj[v] {
			if !seen[w] {
				dfs1(w)
			}
		}
		finish = append(finish, v)
	}
	for _, v := range order {
		if !seen[v] {
			dfs1(v)
		}
	}
	rev := make(map[string][]string)
	for v, ws := range adj {
		for _, w := range ws {
			rev[w] = append(rev[w], v)
		}
	}
	assigned := make(map[string]bool)
	var sccs [][]string
	var comp []string
	var dfs2 func(v string)
	dfs2 = func(v string) {
		assigned[v] = true
		comp = append(comp, v)
		for _, w := range rev[v] {
			if !assigned[w] {
				dfs2(w)
			}
		}
	}
	for i := len(finish) - 1; i >= 0; i-- {
		if v := finish[i]; !assigned[v] {
			comp = nil
			dfs2(v)
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	return sccs
}

// GraphDOT renders the lock-order graph in Graphviz DOT form; may-hold
// edges are dashed.
func (l *Lockorder) GraphDOT() string {
	l.compute()
	var b strings.Builder
	b.WriteString("digraph lockorder {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, key := range sortedKeys(l.edges) {
		e := l.edges[key]
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("%s:%d", filepath.Base(e.pos.Filename), e.pos.Line))
		if e.may {
			attrs += ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.from, e.to, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// LockGraphDOT builds the whole-program lock-order graph over pkgs and
// renders it as DOT — the `codalint -lockgraph` entry point.
func LockGraphDOT(pkgs []*Package) string {
	lo := NewLockorder()
	lo.Bind(NewEngine(pkgs))
	return lo.GraphDOT()
}

// acquired turns one acquire site into graph edges, or into a finding
// when the domain is already must-held.
func (l *Lockorder) acquired(n *FuncNode, a acquireSite) {
	pos := n.Pkg.Fset.Position(a.pos)
	via := ""
	if a.callee != nil {
		via = a.callee.Name
		if chain := a.callee.Acquires[a.domain]; chain != "" {
			via += ": " + chain
		}
	}
	for _, h := range a.held {
		if h.domain != a.domain {
			continue
		}
		line := n.Pkg.Fset.Position(h.pos).Line
		switch {
		case h.may:
		case a.callee == nil:
			l.report(pos, "%s acquires %s while already holding it (acquired line %d): self-deadlock on the same instance, unordered multi-lock on two",
				n.Name, a.domain, line)
		default:
			l.report(pos, "%s calls %s which acquires %s (line %d) while %s is already held: self-deadlock on the same instance, unordered multi-lock on two",
				n.Name, a.callee.Name, a.domain, line, a.domain)
		}
		return
	}
	for _, h := range a.held {
		l.addEdge(h.domain, a.domain, pos, via, h.may)
	}
}

// orderedIteration reports whether the lock order of a loop that
// accumulates same-domain locks is provably ascending: it ranges over a
// variable sorted earlier in this function, over the result of an
// ordered provider, or the acquire indexes into such a sorted variable.
func (l *Lockorder) orderedIteration(n *FuncNode, s loopSite) bool {
	sortedBefore := func(id *ast.Ident) bool {
		p, ok := n.locks.sortedVars[n.Pkg.TypesInfo.Uses[id]]
		return ok && p < s.loopPos
	}
	switch rx := ast.Unparen(s.rangeX).(type) {
	case *ast.CallExpr:
		if callee := l.eng.resolveCallee(n.Pkg, rx.Fun); callee != nil && callee.locks.ordered {
			return true
		}
	case *ast.Ident:
		if sortedBefore(rx) {
			return true
		}
	}
	// Index-loop shape: vols[i].mu.Lock() with vols sorted before.
	for e := s.hold.owner; e != nil; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok && sortedBefore(id) {
				return true
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			e = nil
		}
	}
	return false
}
