package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is codalint's interprocedural core: a call graph over every
// loaded package plus per-function effect summaries, propagated to a
// fixpoint across package boundaries. lockhold and lockguard are thin
// queries over these summaries and the critical-section walk built on
// them (lockwalk.go).
//
// The graph is built from static calls only: package-level functions,
// methods on concrete named types, method values, and immediately
// invoked function literals. Calls through interface methods are not
// devirtualized; instead, a small set of well-known interface methods
// (simtime.Clock.Sleep, crashfs.File.Sync, ...) are effect roots
// matched by package-path suffix, so the repository's own blocking
// primitives are recognized whether they are reached through the
// interface or the concrete type. A function literal is a node of its
// own: its effects reach the enclosing function only through a real
// call edge (immediate invocation), so registering a callback does not
// smear the callback's effects onto the registrar.

// FuncNode is one function (declared or literal) in the call graph.
type FuncNode struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Pkg  *Package
	Name string // human-readable: "(*Server).Checkpoint", "New$1"

	Calls []*FuncNode // static callees, deduplicated, in call-site order

	// Blocks: the function can park its goroutine — transitively
	// reaches a channel operation or a blocking primitive (simtime
	// waits, rpc2/sftp calls, WAL fsync, time.Sleep, ...).
	Blocks   bool
	BlockVia string // first-cause chain, e.g. "(*Node).Call: channel receive"

	// Acquires: lock domains this function may acquire, directly or
	// through any chain of static calls, each mapped to whether the Lock
	// is in this very body. Domains follow lockguard's naming convention
	// and are rendered as "pkg.Type.field" ("server.volume.mu") or
	// "pkg.var" for package-level mutexes. The goroutine bodies launched
	// by `go` statements are excluded: their acquires happen on another
	// stack.
	Acquires map[string]bool
	// locks holds the rest of the lockset summary (see locksets.go).
	locks lockSummary
}

// Engine is the whole-program analysis state shared by the
// interprocedural analyzers.
type Engine struct {
	nodes []*FuncNode
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	byPkg map[*Package][]*FuncNode
}

// NewEngine builds the call graph and runs the summary fixpoint over
// pkgs. Cross-package edges resolve because the loader shares types.Func
// objects between a package and its importers.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
		byPkg: make(map[*Package][]*FuncNode),
	}
	for _, pkg := range pkgs {
		e.collect(pkg)
	}
	// Every later pass runs in source order, so via-chains are
	// reproducible run to run.
	sort.Slice(e.nodes, func(i, j int) bool { return posLess(e.nodes[i].pos(), e.nodes[j].pos()) })
	for _, n := range e.nodes {
		e.scanDirect(n)
		e.scanLocksets(n)
	}
	e.fixpoint()
	return e
}

// PkgNodes returns the nodes whose bodies live in pkg, in source order.
func (e *Engine) PkgNodes(pkg *Package) []*FuncNode { return e.byPkg[pkg] }

// collect registers a node for every function declaration and every
// function literal in pkg.
func (e *Engine) collect(pkg *Package) {
	add := func(n *FuncNode) {
		e.nodes = append(e.nodes, n)
		e.byPkg[pkg] = append(e.byPkg[pkg], n)
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &FuncNode{Decl: fd, Pkg: pkg, Name: declName(fd)}
			if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				e.byObj[obj] = n
			}
			add(n)
		}
		// Literals anywhere in the file (inside declarations, composite
		// literals, variable initializers). Each becomes its own node,
		// named after the enclosing declaration.
		ast.Inspect(file, func(node ast.Node) bool {
			lit, ok := node.(*ast.FuncLit)
			if !ok {
				return true
			}
			n := &FuncNode{Lit: lit, Pkg: pkg, Name: e.litName(pkg, file, lit)}
			e.byLit[lit] = n
			add(n)
			return true
		})
	}
}

// declName renders a FuncDecl's display name.
func declName(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = receiverTypeName(fd)
	}
	if recv == "" {
		return fd.Name.Name
	}
	if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
		recv = "*" + recv
	}
	return "(" + recv + ")." + fd.Name.Name
}

// litName names a literal after the innermost enclosing function
// declaration: "(*Venus).New$1".
func (e *Engine) litName(pkg *Package, file *ast.File, lit *ast.FuncLit) string {
	enclosing := "func"
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Pos() <= lit.Pos() && lit.End() <= fd.End() {
			enclosing = declName(fd)
			break
		}
	}
	pos := pkg.Fset.Position(lit.Pos())
	return enclosing + "$L" + strconv.Itoa(pos.Line)
}

// body returns the node's statement block.
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// inspectOwn walks the node's body, skipping nested function literals
// (they are nodes of their own).
func (n *FuncNode) inspectOwn(fn func(ast.Node) bool) {
	root := ast.Node(n.body())
	ast.Inspect(root, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		return fn(node)
	})
}

// resolveCallee maps a call expression's function operand to a graph
// node, when the call is static.
func (e *Engine) resolveCallee(pkg *Package, fun ast.Expr) *FuncNode {
	if lit, ok := ast.Unparen(fun).(*ast.FuncLit); ok {
		return e.byLit[lit]
	}
	return e.byObj[calleeObj(pkg, fun)]
}

// calleeObj reports the types.Func a call expression invokes (interface
// methods included), for effect-root matching.
func calleeObj(pkg *Package, fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.ParenExpr:
		return calleeObj(pkg, x.X)
	case *ast.Ident:
		fn, _ := pkg.TypesInfo.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[x]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.TypesInfo.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pathIs reports whether pkgPath denotes the named repository package,
// whatever module path it sits under ("repro/internal/wal",
// "internal/wal" for fixtures, "faux/internal/wal" in test modules).
func pathIs(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// recvTypeName returns the bare name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "" // interface receivers are matched by package+name only
}

// blockRoot classifies fn as a known blocking primitive and returns the
// reason, or "".
func blockRoot(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "sync" && name == "Wait":
		return "sync." + recvTypeName(fn) + ".Wait"
	case path == "os" && name == "Sync":
		return "os.File.Sync (fsync)"
	case pathIs(path, "internal/simtime"):
		switch name {
		case "Sleep":
			return "simtime Sleep (parks until the clock advances)"
		case "Get", "GetTimeout":
			return "simtime.Queue." + name + " (parks until an item or the deadline)"
		case "Run":
			return "simtime.Sim.Run (drives a whole simulation)"
		}
	case pathIs(path, "internal/rpc2"):
		switch name {
		case "Call", "Transfer", "AwaitTransfer", "MultiRPC":
			return "rpc2 " + name + " (network round-trip)"
		}
	case pathIs(path, "internal/sftp"):
		switch name {
		case "Send", "Await":
			return "sftp " + name + " (bulk transfer)"
		}
	case pathIs(path, "internal/wal"):
		switch name {
		case "Append", "Sync", "Reset", "Close", "Open":
			return "wal " + name + " (fsync)"
		}
	case pathIs(path, "internal/crashfs"):
		switch name {
		case "Sync", "SyncDir":
			return "crashfs " + name + " (fsync)"
		}
	}
	return ""
}

// scanDirect records a node's local effects: call edges and direct
// blocking operations.
func (e *Engine) scanDirect(n *FuncNode) {
	pkg := n.Pkg
	block := func(why string) {
		if !n.Blocks {
			n.Blocks, n.BlockVia = true, why
		}
	}
	n.inspectOwn(func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if callee := e.resolveCallee(pkg, x.Fun); callee != nil {
				n.Calls = append(n.Calls, callee)
			}
			if r := blockRoot(calleeObj(pkg, x.Fun)); r != "" {
				block(r)
			}
		case *ast.SendStmt:
			block("channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				block("channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				block("select with no default")
			}
		case *ast.RangeStmt:
			if t := pkg.TypesInfo.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					block("range over channel")
				}
			}
		}
		return true
	})
	n.Calls = dedupeNodes(n.Calls)
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func dedupeNodes(in []*FuncNode) []*FuncNode {
	seen := make(map[*FuncNode]bool, len(in))
	out := in[:0]
	for _, n := range in {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// fixpoint propagates Blocks and the lockset summaries through the call
// graph until nothing changes. The facts only grow, so iteration
// converges.
func (e *Engine) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, n := range e.nodes {
			for _, c := range n.Calls {
				if c.Blocks && !n.Blocks {
					n.Blocks, n.BlockVia = true, c.Name+": "+c.BlockVia
					changed = true
				}
			}
			if n.propagateLocksets() {
				changed = true
			}
		}
	}
}

// pos is where the node's body starts.
func (n *FuncNode) pos() token.Position { return n.Pkg.Fset.Position(n.body().Pos()) }

// posLess orders token.Positions by (file, line, column).
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// BlockReason reports whether calling fun blocks, resolving first
// through the call graph and then through the primitive roots.
func (e *Engine) BlockReason(pkg *Package, call *ast.CallExpr) (string, bool) {
	if n := e.resolveCallee(pkg, call.Fun); n != nil {
		if n.Blocks {
			return n.Name + ": " + n.BlockVia, true
		}
		return "", false
	}
	if r := blockRoot(calleeObj(pkg, call.Fun)); r != "" {
		return r, true
	}
	return "", false
}
