package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the allocation half of the interprocedural engine: a
// per-function summary of direct heap-allocation sites, plus an
// Allocates bit propagated callee→caller to fixpoint exactly like
// Blocks and Serializes. The allocscan analyzer queries these summaries
// from //codalint:hotpath roots.
//
// What counts as a direct allocation site (conservatively — escape
// analysis is the compiler's job, keeping memory off the wire path is
// this fence's):
//
//   - composite literals (slice, map, struct, &T{...})
//   - the make and new builtins
//   - append growth — except the append-into idiom: appending to a
//     function parameter (the caller owns the buffer, strconv.AppendInt
//     style) or to a buffer obtained from a pool in the same function
//   - string concatenation and string<->[]byte/[]rune conversions
//   - a function literal that captures variables (the closure is
//     heap-allocated with its environment)
//   - boxing a concrete value into an interface-typed parameter
//   - calls into known allocating stdlib roots (fmt, json,
//     strconv/strings/bytes constructors)
//
// Two escape hatches keep the summary honest instead of useless:
//
//   - pooled memory is a sink, not a source: sync.Pool.Get/Put and the
//     repository's internal/bufpool.Get/Put are recognized, a pool's
//     New constructor literal is exempt (its allocation is amortized
//     across the pool's lifetime), and appends into a pooled buffer do
//     not count;
//   - error construction is exempt (errors.New, fmt.Errorf, and
//     composite literals of error-implementing types, including the
//     whole argument subtree): failures are off the steady-state path
//     by definition, and fencing them would bury the real findings.

// allocSite is one direct allocation in a function's own body.
type allocSite struct {
	pos  token.Pos
	what string
}

// markPoolConstructors flags every function literal that is the New
// field of a sync.Pool composite literal; its allocations are the
// pool's amortized backing store, not per-call garbage.
func (e *Engine) markPoolConstructors(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			cl, ok := node.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pkg.TypesInfo.Types[cl].Type
			if t == nil || !isNamedType(t, "sync", "Pool") {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "New" {
					continue
				}
				if lit, ok := kv.Value.(*ast.FuncLit); ok {
					if n := e.byLit[lit]; n != nil {
						n.poolNew = true
					}
				}
			}
			return true
		})
	}
}

// isNamedType reports whether t (or its pointee) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// poolCall classifies a call as a pooled-memory operation: Get/Put on
// sync.Pool or on the repository's internal/bufpool.
func poolCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeObj(pkg, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if name != "Get" && name != "Put" {
		return false
	}
	if path == "sync" && recvTypeName(fn) == "Pool" {
		return true
	}
	return pathIs(path, "internal/bufpool")
}

// errConstruction reports whether the call builds an error value —
// errors.New or fmt.Errorf — whose whole subtree is exempt.
func errConstruction(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeObj(pkg, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	return (path == "errors" && name == "New") || (path == "fmt" && name == "Errorf")
}

// allocRootCall classifies fn as a known allocating stdlib primitive
// and returns the reason, or "". These are roots because their bodies
// are outside the module and never appear in the call graph.
func allocRootCall(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "fmt":
		// Errorf is handled by the error-construction exemption first.
		if strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Print") || name == "Appendf" {
			return "fmt." + name
		}
	case "encoding/json":
		switch name {
		case "Marshal", "MarshalIndent", "Unmarshal", "NewEncoder", "NewDecoder", "Encode", "Decode":
			return "json." + name
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool", "Quote":
			return "strconv." + name
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "Fields", "Replace", "ReplaceAll", "ToLower", "ToUpper":
			return "strings." + name
		}
	case "bytes":
		switch name {
		case "NewBuffer", "NewBufferString", "NewReader", "Join", "Repeat", "Clone":
			return "bytes." + name
		}
	case "io":
		if name == "ReadAll" {
			return "io.ReadAll"
		}
	}
	return ""
}

// typeImplementsError reports whether t (or *t) satisfies the error
// interface.
func typeImplementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// scanAllocs records n's direct allocation sites. Run after scanDirect
// (it reuses nothing from it, but keeping the passes separate keeps
// both readable).
func (e *Engine) scanAllocs(n *FuncNode) {
	pkg := n.Pkg

	// Parameters and receiver: appending into one is the caller-owns-
	// the-buffer idiom, not growth this function is charged for.
	owned := make(map[types.Object]bool)
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := pkg.TypesInfo.Defs[name]; obj != nil {
				owned[obj] = true
			}
		}
	}
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
		if n.Decl.Recv != nil {
			for _, f := range n.Decl.Recv.List {
				addField(f)
			}
		}
	} else {
		ftype = n.Lit.Type
	}
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			addField(f)
		}
	}

	// Locals bound to pooled buffers (x := bufpool.Get(n), x :=
	// pool.Get().(*T)): appends through them are recycled memory.
	n.inspectOwn(func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
				rhs = ta.X
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !poolCall(pkg, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pkg.TypesInfo.Defs[id]; obj != nil {
				owned[obj] = true
			} else if obj := pkg.TypesInfo.Uses[id]; obj != nil {
				owned[obj] = true
			}
		}
		return true
	})

	add := func(pos token.Pos, what string) {
		n.allocSites = append(n.allocSites, allocSite{pos: pos, what: what})
	}

	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			if x == n.Lit {
				return true
			}
			if caps := captureCount(pkg, x); caps > 0 {
				add(x.Pos(), fmt.Sprintf("closure capturing %d variable(s)", caps))
			}
			return false // the literal's body is its own node
		case *ast.CompositeLit:
			t := pkg.TypesInfo.Types[x].Type
			if typeImplementsError(t) {
				return false // error construction is off the steady-state path
			}
			add(x.Pos(), "composite literal "+typeText(t, pkg.Fset, x))
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(pkg, x) && pkg.TypesInfo.Types[x].Value == nil {
				add(x.Pos(), "string concatenation")
			}
			return true
		case *ast.CallExpr:
			return visitAllocCall(pkg, x, owned, add)
		}
		return true
	}
	ast.Inspect(n.body(), visit)

	if n.poolNew {
		// A pool's New constructor is the amortized backing store.
		n.allocSites = nil
	}
	if len(n.allocSites) > 0 {
		n.Allocates = true
		n.AllocVia = n.allocSites[0].what
	}
}

// visitAllocCall classifies one call expression's allocation behaviour
// and reports whether the walk should descend into it.
func visitAllocCall(pkg *Package, x *ast.CallExpr, owned map[types.Object]bool, add func(token.Pos, string)) bool {
	// Conversions: string <-> []byte/[]rune copies.
	if tv, ok := pkg.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
		if reason := conversionAlloc(pkg, tv.Type, x.Args[0]); reason != "" {
			add(x.Pos(), reason)
		}
		return true
	}
	if errConstruction(pkg, x) {
		return false // error path, arguments included
	}
	if poolCall(pkg, x) {
		return true // recycled memory is a sink, not a source
	}
	if id, ok := x.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				add(x.Pos(), "make("+exprText(pkg.Fset, x.Args[0])+")")
			case "new":
				add(x.Pos(), "new("+exprText(pkg.Fset, x.Args[0])+")")
			case "append":
				if !appendBaseExempt(pkg, x.Args[0], owned) {
					add(x.Pos(), "append growth of "+exprText(pkg.Fset, x.Args[0]))
				}
			}
			return true
		}
	}
	if r := allocRootCall(calleeObj(pkg, x.Fun)); r != "" {
		add(x.Pos(), r)
		return true
	}
	boxingSites(pkg, x, add)
	return true
}

// appendBaseExempt reports whether the first argument of an append is a
// caller-owned or pooled buffer: a parameter, a pool-bound local, a
// dereference of either, or a nested exempt append.
func appendBaseExempt(pkg *Package, expr ast.Expr, owned map[types.Object]bool) bool {
	switch x := expr.(type) {
	case *ast.Ident:
		return owned[pkg.TypesInfo.Uses[x]] || owned[pkg.TypesInfo.Defs[x]]
	case *ast.StarExpr:
		return appendBaseExempt(pkg, x.X, owned)
	case *ast.ParenExpr:
		return appendBaseExempt(pkg, x.X, owned)
	case *ast.IndexExpr:
		return appendBaseExempt(pkg, x.X, owned)
	case *ast.SliceExpr:
		return appendBaseExempt(pkg, x.X, owned)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			if _, isBuiltin := pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return appendBaseExempt(pkg, x.Args[0], owned)
			}
		}
	}
	return false
}

// conversionAlloc classifies a type conversion as allocating and
// returns the reason, or "".
func conversionAlloc(pkg *Package, to types.Type, arg ast.Expr) string {
	from := pkg.TypesInfo.Types[arg].Type
	if from == nil || pkg.TypesInfo.Types[arg].Value != nil {
		return "" // constant conversions are folded
	}
	if isString(to) && isByteOrRuneSlice(from) {
		return "string(" + kindText(from) + ") conversion copies"
	}
	if isByteOrRuneSlice(to) && isString(from) {
		return kindText(to) + "(string) conversion copies"
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func kindText(t types.Type) string {
	if s, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && (b.Kind() == types.Rune || b.Kind() == types.Int32) {
			return "[]rune"
		}
		return "[]byte"
	}
	return t.String()
}

// isStringExpr reports whether the expression's static type is a string.
func isStringExpr(pkg *Package, expr ast.Expr) bool {
	t := pkg.TypesInfo.Types[expr].Type
	return t != nil && isString(t)
}

// typeText renders a composite literal's type for diagnostics.
func typeText(t types.Type, fset *token.FileSet, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return exprText(fset, lit.Type)
	}
	if t != nil {
		return t.String()
	}
	return "?"
}

// boxingSites reports every concrete argument passed into an
// interface-typed parameter: the value is boxed (allocated) at the call
// boundary.
func boxingSites(pkg *Package, call *ast.CallExpr, add func(token.Pos, string)) {
	tv, ok := pkg.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, not boxed here
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pkg.TypesInfo.Types[arg].Type
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface assignment does not box
		}
		if pointerShaped(at) {
			continue // pointer-shaped values live in the iface word directly
		}
		add(arg.Pos(), fmt.Sprintf("boxing %s into interface parameter", at.String()))
	}
}

// pointerShaped reports whether a value of type t is stored directly in
// an interface's data word, so boxing it does not allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// captureCount counts the variables a function literal captures from
// its enclosing function. A literal that captures nothing compiles to a
// static function value and never hits the heap.
func captureCount(pkg *Package, lit *ast.FuncLit) int {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[obj] {
			return true
		}
		// Declared outside the literal but not at package scope.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
				seen[obj] = true
			}
		}
		return true
	})
	return len(seen)
}
