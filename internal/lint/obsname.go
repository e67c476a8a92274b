package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// Obsname enforces the observability naming contract: the name argument
// of every Registry.Counter / CounterFunc / Gauge / GaugeFunc /
// Histogram / StartSpan / SpanAt call must be a static snake_case string
// whose first segment is the registering package's name. Static names keep
// dumps grep-able and the Prometheus text export well-formed; the
// package prefix keeps a shared registry collision-free when several
// components register into it. Label VALUES and span node labels may be
// dynamic — only metric and span names are pinned.
type Obsname struct{}

// NewObsname returns the analyzer.
func NewObsname() *Obsname { return &Obsname{} }

// Name implements Analyzer.
func (*Obsname) Name() string { return "obsname" }

// Doc implements Analyzer.
func (*Obsname) Doc() string {
	return "obs metric and span names must be static snake_case literals with the package prefix"
}

// obsnameMethods maps each Registry method carrying a metric name or
// span name to that argument's index (span methods take the dynamic
// node label first).
var obsnameMethods = map[string]int{
	"Counter":     0,
	"CounterFunc": 0,
	"Gauge":       0,
	"GaugeFunc":   0,
	"Histogram":   0,
	"StartSpan":   1,
	"SpanAt":      1,
}

// obsnameRe is the shape of a legal name: lower-case alphanumeric
// segments joined by single underscores.
var obsnameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// Analyze implements Analyzer.
func (o *Obsname) Analyze(pkg *Package) []Finding {
	var out []Finding
	pkgName := pkg.Types.Name()
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg, call)
			if fn == nil {
				return true
			}
			argIdx, watched := obsnameMethods[fn.Name()]
			if !watched || len(call.Args) <= argIdx {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Name() != "Registry" {
				return true
			}

			arg := call.Args[argIdx]
			pos := pkg.Fset.Position(arg.Pos())
			tv, ok := pkg.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				out = append(out, Finding{
					Pos:      pos,
					Analyzer: o.Name(),
					Message:  fmt.Sprintf("obs %s name must be a static string literal, not a computed value", fn.Name()),
				})
				return true
			}
			name := constant.StringVal(tv.Value)
			if !obsnameRe.MatchString(name) {
				out = append(out, Finding{
					Pos:      pos,
					Analyzer: o.Name(),
					Message:  fmt.Sprintf("obs name %q is not snake_case (lower-case alphanumeric segments joined by _)", name),
				})
				return true
			}
			if seg, _, _ := strings.Cut(name, "_"); seg != pkgName {
				out = append(out, Finding{
					Pos:      pos,
					Analyzer: o.Name(),
					Message:  fmt.Sprintf("obs name %q must carry its package prefix (want %q)", name, pkgName+"_..."),
				})
			}
			return true
		})
	}
	return out
}
