package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
)

// fenceKind is the use of a fenced object a row confines; its value is
// the verb a finding reports.
type fenceKind string

const (
	fenceCall   fenceKind = "called"   // any reference to a function or method: a call, or a method value
	fenceWrite  fenceKind = "written"  // =, op=, ++/--, &x.F, or an element write: x.F[k] =, delete, copy or append onto x.F
	fenceUse    fenceKind = "used"     // any reference, read or write
	fenceImport fenceKind = "imported" // an import of the path, test files included
)

// fenceRow is one structure rule: outside allow, no file under in (the
// whole module when empty) uses objs the way kind says. objs are
// functions, methods and fields ("time.Now", "internal/simtime.Clock.Go",
// module-relative inside the module), resolved through go/types so the
// rule holds however a use is spelled, or import paths. allow lists
// module-relative directories, files and declarations
// ("internal/venus.Venus.walk", function literals inside included).
type fenceRow struct {
	name      string // the findings' analyzer name, the //codalint:ignore key
	objs      []string
	kind      fenceKind
	in, allow []string
	why       string // what the rule protects and what to do instead
}

// names qualifies each space-separated name in list with pkg.
func names(pkg, list string) []string {
	var out []string
	for _, n := range strings.Fields(list) {
		out = append(out, pkg+"."+n)
	}
	return out
}

// realTime is where the real clock and the global random source may be
// used: the clock veneer, and the cmd/ binaries that build a Real clock.
var realTime = []string{"internal/simtime", "cmd"}

// fences is the structure table, one row per invariant that no ordinary
// assertion sees break, because a violation skews the figures instead
// of failing a test.
var fences = []fenceRow{
	{name: "simclock", objs: names("time", "Now Sleep After Tick NewTimer NewTicker AfterFunc Since Until"), kind: fenceCall, allow: realTime,
		why: "bypasses the virtual clock; use the component's simtime.Clock (Now, Sleep, Go) or a simtime.Queue"},
	{name: "simrand", objs: names("math/rand", "Int Intn Int31 Int31n Int63 Int63n Uint32 Uint64 Float32 Float64 ExpFloat64 NormFloat64 Perm Shuffle Seed Read"), kind: fenceCall, allow: realTime,
		why: "uses the global random source; use rand.New(rand.NewSource(seed)) so runs are reproducible"},
	{name: "nogob", objs: []string{"encoding/gob"}, kind: fenceImport,
		why: "every byte format is one walk over wire.Coder (internal/wire)"},
	{name: "world", objs: []string{"internal/simtime.NewSim", "internal/crashfs.NewMem"}, kind: fenceCall, allow: []string{"internal/world", "cmd/codaperf"},
		why: "simulated deployments, their clock and their fault-injectable disks, are assembled by internal/world (New, Group, Client, Run)"},
	{name: "applybatch", objs: names("internal/server", "admitRecord journalBatchLocked commitApply"), kind: fenceCall, allow: []string{"internal/server/apply.go"},
		why: "records are admitted, journaled and committed only by the batch functions in server/apply.go, so every server state change commits there"},
	{name: "stageinplace", objs: []string{"internal/codafs.Object.Clone"}, kind: fenceCall, in: []string{"internal/server/apply.go"},
		why: "a batch is staged in place with an undo list, so it costs what its records change; a directory's clone copies its whole entry map"},
	{name: "mutateonce", objs: []string{"internal/wire.MutationOf"}, kind: fenceCall, allow: []string{"internal/venus.Venus.update"},
		why: "Venus sends a connected-mode mutation from one place, update"},
	{name: "shiponce", objs: []string{"internal/venus.Venus.reintegrateCall"}, kind: fenceCall, allow: []string{"internal/venus.Venus.shipRecords"},
		why: "a CML chunk is shipped from one call site, shipRecords"},
	{name: "pushonce", objs: []string{"internal/server.Server.shipVolume"}, kind: fenceCall, allow: []string{"internal/server.Server.shipToPeers"},
		why: "a log entry is pushed to peers from one place, reached only from a client commit, and never relayed"},
	{name: "links", objs: []string{"internal/codafs.Status.Links"}, kind: fenceWrite, allow: []string{"internal/cml", "internal/wire.Coder.status"},
		why: "a record has one effect, cml.Record.Apply, on the server and in the client cache alike"},
	{name: "entries", objs: names("internal/codafs.Object", "SetEntry DropEntry"), kind: fenceCall, allow: []string{"internal/cml"},
		why: "a record has one effect, cml.Record.Apply; administrative writes are records too"},
	{name: "children", objs: []string{"internal/codafs.Object.Children"}, kind: fenceWrite,
		allow: []string{"internal/codafs", "internal/wire.Coder.Object", "internal/cml.Record.newObject", "internal/venus.Venus.revalidateSuspects"},
		why:   "a directory's Length is kept by one rule, 32 bytes an entry: entries change through Object.SetEntry and DropEntry"},
	{name: "contents", objs: []string{"internal/codafs.Object.Data", "internal/cml.Record.Data"}, kind: fenceWrite, in: []string{"internal/venus", "internal/codafs"},
		allow: []string{"internal/venus.Venus.revalidateSuspects", "internal/venus.Venus.shipRecords"},
		why:   "contents are replaced, never written through, so Venus.ViewFile may hand out the cache's own bytes (DESIGN.md §4.11)"},
	{name: "listing", objs: []string{"internal/codafs.Object.ChildNames"}, kind: fenceCall, in: []string{"internal/venus"}, allow: []string{"internal/venus.fso.listing"},
		why: "a cached directory is listed from its kept, sorted name list; fso.listing builds it"},
	{name: "cachegen", objs: []string{"internal/venus.cache.gen"}, kind: fenceWrite, allow: names("internal/venus.cache", "install recharge remove"),
		why: "walk's path memo is true while the namespace generation moves on every change to it"},
	{name: "pathmemo", objs: names("internal/venus.Venus", "memo memoGen"), kind: fenceUse, allow: []string{"internal/venus.Venus.walk"},
		why: "only walk reads and writes its memo, against cache.gen"},
	{name: "serveonly", objs: []string{"internal/simtime.Clock.Go", "internal/simtime.Sim.Go"}, kind: fenceCall, in: []string{"internal/rpc2"}, allow: []string{"internal/rpc2.Node.serve"},
		why: "rpc2 serves each request as a tracked goroutine of its own, started only in Node.serve; its datagrams are served by the conn"},
}

// Fence checks a structure table, fences in production. Findings are
// reported under their row's name, so a suppression and the -ignores
// audit work per row.
type Fence []fenceRow

// NewFence returns the analyzer over the repository's table.
func NewFence() Fence { return fences }

// Name implements Analyzer.
func (Fence) Name() string { return "fence" }

// Doc implements Analyzer.
func (Fence) Doc() string { return "structure rules, one finding name per row: X is used only in Y" }

// under reports whether rel is one of the module-relative directories or
// files in list.
func under(rel string, list []string) bool {
	return slices.ContainsFunc(list, func(e string) bool { return rel == e || strings.HasPrefix(rel, e+"/") })
}

// isPath reports whether an allow entry is a directory or a file rather
// than a declaration.
func isPath(a string) bool {
	return strings.HasSuffix(a, ".go") || !strings.Contains(path.Base(a), ".")
}

// resolver returns a lookup of the object a spec names among the
// packages pkg can see (itself and everything it imports, directly or
// not; no other package's object appears in it), the module's before the
// standard library's; nil when out of sight. TestRepoIsLintClean checks
// that every row's names resolve somewhere.
func resolver(pkg *Package) func(spec string) types.Object {
	module := strings.TrimSuffix(pkg.Path, pkg.RelDir) // "repro/", or "" for a fixture
	visible := make(map[string]*types.Package)
	var see func(*types.Package)
	see = func(p *types.Package) {
		if visible[p.Path()] == nil {
			visible[p.Path()] = p
			for _, q := range p.Imports() {
				see(q)
			}
		}
	}
	see(pkg.Types)
	return func(spec string) types.Object {
		if isPath(spec) {
			return nil // a directory or a file names no object
		}
		slash := strings.LastIndex(spec, "/")
		dot := slash + 1 + strings.Index(spec[slash+1:], ".")
		tp := visible[module+spec[:dot]]
		if tp == nil {
			if tp = visible[spec[:dot]]; tp == nil {
				return nil
			}
		}
		parts := strings.Split(spec[dot+1:], ".")
		obj := tp.Scope().Lookup(parts[0])
		if obj != nil && len(parts) == 2 {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, tp, parts[1])
		}
		return obj
	}
}

// written returns the field a write to e lands in (x.F for x.F, x.F[k]
// and x.F[i:j]), or nil.
func written(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// Analyze implements Analyzer.
func (fc Fence) Analyze(pkg *Package) []Finding {
	type fenced struct {
		row  int
		name string // as findings print it: "time.Now", "codafs.Status.Links"
	}
	type rowObj struct {
		row int
		obj types.Object
	}
	resolve := resolver(pkg)
	objs := make(map[types.Object][]fenced)
	imports := make(map[string][]int)
	allowed := make(map[rowObj]bool) // declarations a row allows
	for i, r := range fc {
		for _, spec := range r.objs {
			if r.kind == fenceImport {
				imports[spec] = append(imports[spec], i)
			} else if obj := resolve(spec); obj != nil {
				objs[obj] = append(objs[obj], fenced{i, path.Base(spec)})
			}
		}
		for _, a := range r.allow {
			if obj := resolve(a); obj != nil {
				allowed[rowObj{i, obj}] = true
			}
		}
	}

	var out []Finding
	report := func(pos token.Pos, row int, what string) {
		r := &fc[row]
		out = append(out, Finding{Pos: pkg.Fset.Position(pos), Analyzer: r.name, Message: fmt.Sprintf("%s %s: %s", what, r.kind, r.why)})
	}
	applies := make([]bool, len(fc)) // the row covers the file and does not allow it whole
	// Test files are not type-checked: only their imports can match.
	for _, f := range slices.Concat(pkg.Files, pkg.TestFiles) {
		rel := path.Join(pkg.RelDir, path.Base(pkg.Fset.Position(f.Pos()).Filename))
		for i, r := range fc {
			applies[i] = (len(r.in) == 0 || under(rel, r.in)) && !under(rel, r.allow)
		}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			for _, i := range imports[p] {
				if applies[i] {
					report(spec.Pos(), i, strconv.Quote(p))
				}
			}
		}
		for _, d := range f.Decls {
			var decl types.Object // a use in a function literal is its enclosing declaration's
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl = pkg.TypesInfo.Defs[fd.Name]
			}
			check := func(id *ast.Ident, write bool) {
				for _, fd := range objs[pkg.TypesInfo.Uses[id]] {
					if (fc[fd.row].kind == fenceWrite) == write && applies[fd.row] && !allowed[rowObj{fd.row, decl}] {
						report(id.Pos(), fd.row, fd.name)
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				var target ast.Expr
				switch n := n.(type) {
				case *ast.Ident:
					check(n, false)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						check(written(l), true)
					}
				case *ast.IncDecStmt:
					target = n.X
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target = n.X
					}
				case *ast.CallExpr:
					id, _ := ast.Unparen(n.Fun).(*ast.Ident)
					if _, ok := pkg.TypesInfo.Uses[id].(*types.Builtin); ok && len(n.Args) > 0 && (id.Name == "delete" || id.Name == "copy" || id.Name == "append") {
						target = n.Args[0]
					}
				}
				if target != nil {
					check(written(target), true)
				}
				return true
			})
		}
	}
	return out
}
