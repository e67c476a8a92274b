package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Lockguard enforces the repository's lock-discipline convention: a
// struct that owns mutex fields guards its mutable sibling fields with
// them. Exported methods that read or write a guarded field must take
// the field's guarding lock — directly (<lock>.Lock/RLock) or by calling
// a sibling method that does (e.g. a lock() helper) — which is read off
// the engine's per-function Acquires facts.
//
// Mutex fields are recognized by name: `mu`, or any name ending in "Mu"
// (fragMu). A struct with a single mutex guards every mutable
// sibling with it. A struct with several mutexes is partitioned into
// concurrency domains positionally — each non-mutex field is guarded by
// the nearest mutex field declared above it, and fields declared before
// the first mutex are unguarded configuration (clocks, connections,
// atomics). This is the registry-of-domains pattern: a registry lock
// over the lookup maps, with the located domain objects carrying their
// own locks (server.Server and server.volume).
//
// A field counts as guarded when at least one method of the struct
// writes it (assignment, ++/--, or writing through a map index): fields
// assigned only in constructors are immutable configuration and may be
// read freely. Methods whose name ends in "Locked" follow the
// caller-holds-the-lock convention and are exempt.
type Lockguard struct {
	eng *Engine
}

// NewLockguard returns the analyzer; the engine is bound by Run.
func NewLockguard() *Lockguard { return &Lockguard{} }

// Bind implements interprocAnalyzer.
func (l *Lockguard) Bind(e *Engine) { l.eng = e }

// Name implements Analyzer.
func (*Lockguard) Name() string { return "lockguard" }

// Doc implements Analyzer.
func (*Lockguard) Doc() string {
	return "exported methods of mutex-owning structs must hold the guarding mutex when touching mutated sibling fields"
}

// guardedStruct is one struct type owning mutex fields.
type guardedStruct struct {
	name    string
	locks   []string          // mutex field names, declaration order
	guardOf map[string]string // sibling field → guarding lock ("" = unguarded)
	mutated map[string]bool   // fields written by at least one method
	methods []*ast.FuncDecl
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isMutexField reports whether the field follows the mutex naming
// convention the analyzer enforces.
func isMutexField(name string, t types.Type) bool {
	return isMutexType(t) && (name == "mu" || strings.HasSuffix(name, "Mu"))
}

// Analyze implements Analyzer.
func (l *Lockguard) Analyze(pkg *Package) []Finding {
	if l.eng == nil {
		l.Bind(NewEngine([]*Package{pkg}))
	}
	var out []Finding
	for _, gs := range l.collect(pkg) {
		for _, fn := range gs.methods {
			if !ast.IsExported(fn.Name.Name) || strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			recv := receiverName(fn)
			if recv == "" || fn.Body == nil {
				continue
			}
			guarded := make(map[string]bool, len(gs.mutated))
			for f := range gs.mutated {
				if gs.guardOf[f] != "" {
					guarded[f] = true
				}
			}
			touched := touchedFields(fn, recv, guarded)
			if len(touched) == 0 {
				continue
			}
			// Group the touched fields by their guarding lock; each lock
			// the method fails to acquire is one finding.
			byLock := make(map[string][]string)
			for f := range touched {
				byLock[gs.guardOf[f]] = append(byLock[gs.guardOf[f]], f)
			}
			for _, lock := range sortedKeys(byLock) {
				if l.takes(pkg, gs, fn, lock) {
					continue
				}
				names := byLock[lock]
				sort.Strings(names)
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(fn.Name.Pos()),
					Analyzer: l.Name(),
					Message: fmt.Sprintf("%s.%s accesses guarded field(s) %s without holding %s",
						gs.name, fn.Name.Name, strings.Join(names, ", "), lock),
				})
			}
		}
	}
	return out
}

// collect finds every mutex-owning struct in the package, partitions its
// fields into lock domains, and records its methods and the fields those
// methods mutate.
func (l *Lockguard) collect(pkg *Package) map[string]*guardedStruct {
	structs := make(map[string]*guardedStruct)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		gs := &guardedStruct{
			name:    name,
			guardOf: make(map[string]string),
			mutated: make(map[string]bool),
		}
		current := "" // nearest preceding mutex field
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexField(f.Name(), f.Type()) {
				gs.locks = append(gs.locks, f.Name())
				current = f.Name()
				continue
			}
			gs.guardOf[f.Name()] = current
		}
		if len(gs.locks) == 0 {
			continue
		}
		if len(gs.locks) == 1 {
			// A single mutex guards every sibling wherever it is declared
			// (the long-standing convention; position is style, not
			// semantics, until a second domain appears).
			for f := range gs.guardOf {
				gs.guardOf[f] = gs.locks[0]
			}
		}
		structs[name] = gs
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			gs, ok := structs[receiverTypeName(fn)]
			if !ok {
				continue
			}
			gs.methods = append(gs.methods, fn)
			recv := receiverName(fn)
			if recv == "" || fn.Body == nil {
				continue
			}
			for f := range mutatedFields(fn, recv, gs.guardOf) {
				gs.mutated[f] = true
			}
		}
	}
	return structs
}

// receiverTypeName unwraps the receiver type expression (pointer and
// generic instantiations) to its base type name.
func receiverTypeName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// receiverName returns the receiver variable name, or "" when unnamed.
func receiverName(fn *ast.FuncDecl) string {
	names := fn.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}

// baseField returns the first field selected off the receiver variable
// in expr ("v.stats.Reintegrations" → "stats", "s.frags[k]" → "frags"),
// or "".
func baseField(expr ast.Expr, recv string) string {
	for {
		switch x := expr.(type) {
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
				return x.Sel.Name
			}
			expr = x.X
		default:
			return ""
		}
	}
}

// mutatedFields reports sibling fields the method writes (assignment,
// ++/--, including through a map or slice index), including inside
// closures.
func mutatedFields(fn *ast.FuncDecl, recv string, siblings map[string]string) map[string]bool {
	out := make(map[string]bool)
	note := func(expr ast.Expr) {
		if f := baseField(expr, recv); f != "" {
			if _, sibling := siblings[f]; sibling {
				out[f] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(x.X)
		}
		return true
	})
	return out
}

// touchedFields reports guarded sibling fields the method reads or
// writes anywhere in its body.
func touchedFields(fn *ast.FuncDecl, recv string, guarded map[string]bool) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv && guarded[sel.Sel.Name] {
				out[sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}

// takes reports whether the method takes the struct's lock: its own
// body, a function literal in it, or a method of the same struct it
// calls directly locks (an Acquires entry marked direct) a mutex field
// of that name. Matching the field name rather than the whole domain
// lets a stand-in count, as when simtime.Queue runs under its Sim's mu.
func (l *Lockguard) takes(pkg *Package, gs *guardedStruct, fn *ast.FuncDecl, lock string) bool {
	obj, _ := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
	nodes := []*FuncNode{l.eng.byObj[obj]}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			nodes = append(nodes, l.eng.byLit[x])
		case *ast.CallExpr:
			// Origin: a method of an instantiated generic struct is
			// declared on the generic.
			if m := calleeObj(pkg, x.Fun); m != nil && m.Pkg() == pkg.Types && recvTypeName(m) == gs.name {
				nodes = append(nodes, l.eng.byObj[m.Origin()])
			}
		}
		return true
	})
	for _, n := range nodes {
		if n == nil {
			continue
		}
		for d, direct := range n.Acquires {
			if direct && strings.HasSuffix(d, "."+lock) {
				return true
			}
		}
	}
	return false
}
