package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// HotpathDirective marks a function as an allocation-free root:
//
//	//codalint:hotpath <optional note>
//
// placed in the function's doc comment or on the line directly above
// the declaration. From each marked root, allocscan reports every
// allocation the function performs directly and every call whose callee
// transitively allocates (per the engine's Allocates summary) — unless
// the memory is pooled, the path is error construction, or the finding
// carries a //codalint:ignore allocscan directive with a reason.
const HotpathDirective = "//codalint:hotpath"

// Allocscan is the hot-path allocation analyzer. The engine computes a
// per-function Allocates summary (alloc.go); this analyzer is the query
// layer: it resolves //codalint:hotpath directives to call-graph roots
// and reports, inside each root only,
//
//   - every direct allocation site, at its own position;
//   - every call to a resolved callee whose Allocates bit is set, at
//     the call site, with the callee's via-chain — unless the callee is
//     itself hotpath-marked (it is audited on its own, and double
//     reporting would force duplicate suppressions);
//   - every dangling directive that attaches to no function
//     declaration.
//
// Findings never appear outside marked functions: cold code may
// allocate freely, and blaming a shared helper at its definition would
// punish every caller for the hot one's discipline. Calls through
// interfaces are not devirtualized; an unresolved dynamic call is
// flagged only when the interface method itself is a known allocating
// root (fmt/json), otherwise it passes — the same documented
// limitation the blocking summaries have.
type Allocscan struct {
	eng    *Engine
	inited bool
	roots  map[*FuncNode]bool
	// dangling directives, keyed by package so Analyze stays per-package.
	dangling map[*Package][]Finding
}

// NewAllocscan returns the analyzer; the engine is bound by Run.
func NewAllocscan() *Allocscan { return &Allocscan{} }

// Name implements Analyzer.
func (*Allocscan) Name() string { return "allocscan" }

// Doc implements Analyzer.
func (*Allocscan) Doc() string {
	return "//codalint:hotpath functions must not allocate, directly or through any callee (pooled buffers exempt)"
}

// Bind implements interprocAnalyzer.
func (a *Allocscan) Bind(e *Engine) { a.eng = e }

// Analyze implements Analyzer.
func (a *Allocscan) Analyze(pkg *Package) []Finding {
	if a.eng == nil {
		a.Bind(NewEngine([]*Package{pkg}))
	}
	a.init()
	var out []Finding
	out = append(out, a.dangling[pkg]...)
	for _, n := range a.eng.PkgNodes(pkg) {
		if a.roots[n] {
			out = append(out, a.checkRoot(pkg, n)...)
		}
	}
	return out
}

// init resolves hotpath directives to graph nodes, once per engine.
func (a *Allocscan) init() {
	if a.inited {
		return
	}
	a.inited = true
	a.roots = make(map[*FuncNode]bool)
	a.dangling = make(map[*Package][]Finding)

	seen := make(map[*Package]bool)
	for _, n := range a.eng.nodes {
		if seen[n.Pkg] {
			continue
		}
		seen[n.Pkg] = true
		a.collectRoots(n.Pkg)
	}
}

// collectRoots scans pkg's comments for hotpath directives and attaches
// each to its function declaration. A directive belongs to a FuncDecl
// when it sits inside the declaration's doc comment or on the line
// directly above the `func` keyword; anything else is dangling.
func (a *Allocscan) collectRoots(pkg *Package) {
	byDecl := make(map[*ast.FuncDecl]*FuncNode)
	for _, n := range a.eng.PkgNodes(pkg) {
		if n.Decl != nil {
			byDecl[n.Decl] = n
		}
	}
	for _, file := range pkg.Files {
		decls := make([]*ast.FuncDecl, 0, len(file.Decls))
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls = append(decls, fd)
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !isHotpathComment(c.Text) {
					continue
				}
				fd := attachDirective(pkg, c, decls)
				if fd == nil {
					a.dangling[pkg] = append(a.dangling[pkg], Finding{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: a.Name(),
						Message:  "codalint:hotpath directive attaches to no function declaration (put it in the doc comment or on the line above `func`)",
					})
					continue
				}
				if n := byDecl[fd]; n != nil {
					a.roots[n] = true
				}
			}
		}
	}
}

// isHotpathComment reports whether a comment is the hotpath directive
// (exact, or followed by a space and a note — not a prefix of some
// longer word).
func isHotpathComment(text string) bool {
	rest, ok := strings.CutPrefix(text, HotpathDirective)
	return ok && (rest == "" || strings.HasPrefix(rest, " "))
}

// attachDirective finds the FuncDecl a directive comment belongs to.
func attachDirective(pkg *Package, c *ast.Comment, decls []*ast.FuncDecl) *ast.FuncDecl {
	cLine := pkg.Fset.Position(c.Pos()).Line
	for _, fd := range decls {
		if fd.Doc != nil && c.Pos() >= fd.Doc.Pos() && c.End() <= fd.Doc.End() {
			return fd
		}
		if pkg.Fset.Position(fd.Pos()).Line == cLine+1 {
			return fd
		}
	}
	return nil
}

// checkRoot reports the allocation findings inside one marked function.
func (a *Allocscan) checkRoot(pkg *Package, n *FuncNode) []Finding {
	var out []Finding
	for _, site := range n.allocSites {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(site.pos),
			Analyzer: a.Name(),
			Message: fmt.Sprintf("hotpath %s allocates: %s; reuse a buffer, take one from internal/bufpool, or suppress with a reason",
				n.Name, site.what),
		})
	}
	n.inspectOwn(func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if poolCall(pkg, call) {
			// Pool Get/Put are sinks: their backing-store growth is
			// amortized across the pool's lifetime, not charged per call.
			return true
		}
		c := a.eng.resolveCallee(pkg, call.Fun)
		if c == nil || !c.Allocates || a.roots[c] {
			return true
		}
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(call.Pos()),
			Analyzer: a.Name(),
			Message: fmt.Sprintf("hotpath %s calls %s, which allocates (%s); pool the buffer, mark the callee //codalint:hotpath, or suppress with a reason",
				n.Name, c.Name, c.AllocVia),
		})
		return true
	})
	return out
}
