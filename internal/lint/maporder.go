package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Maporder is the map-iteration-order taint analyzer. Go randomizes map
// iteration, so any map-range whose order reaches serialized, persisted,
// or compared output (json encoders, fmt to writers, WAL appends,
// obs events and dumps) makes byte-identical reproduction impossible —
// the exact class behind the snapshot nondeterminism fixed by hand
// in the durability PR. Two shapes are reported:
//
//  1. a range over a map whose body (directly, or through any chain of
//     static calls resolved by the engine, across packages) reaches an
//     order-sensitive sink;
//  2. a slice or string built up inside a map-range body and later
//     passed to a sink in the same function without an intervening
//     sort.* / slices.Sort* call over it.
//
// The fix is always the same: materialize the keys, sort them, and
// iterate the sorted slice — then the range is over a slice and the
// analyzer has nothing to say.
type Maporder struct {
	eng *Engine
}

// NewMaporder returns the analyzer; the engine is bound by Run.
func NewMaporder() *Maporder { return &Maporder{} }

// Name implements Analyzer.
func (*Maporder) Name() string { return "maporder" }

// Doc implements Analyzer.
func (*Maporder) Doc() string {
	return "map iteration order must not flow into serialized/persisted/compared output; sort keys first"
}

// Bind implements interprocAnalyzer.
func (m *Maporder) Bind(e *Engine) { m.eng = e }

// Analyze implements Analyzer.
func (m *Maporder) Analyze(pkg *Package) []Finding {
	if m.eng == nil {
		m.Bind(NewEngine([]*Package{pkg}))
	}
	var out []Finding
	for _, n := range m.eng.PkgNodes(pkg) {
		out = append(out, m.checkNode(pkg, n)...)
	}
	return out
}

// taintedName renders the expression a map-range result is accumulated
// into ("keys", "img.HDB"), or "" when it is not a trackable name.
func taintedName(expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := taintedName(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}

// exprText renders an expression for diagnostics.
func exprText(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, expr); err != nil {
		return "?"
	}
	return buf.String()
}

// taint records one map-ordered accumulator: the variable it lives in
// and where the tainting loop is.
type taint struct {
	name    string
	loopPos token.Pos
	mapExpr string
}

func (m *Maporder) checkNode(pkg *Package, n *FuncNode) []Finding {
	var out []Finding
	var taints []taint

	n.inspectOwn(func(node ast.Node) bool {
		rng, ok := node.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.TypesInfo.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		mapText := exprText(pkg.Fset, rng.X)

		// Shape 1: a sink reached from inside the loop body.
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			if reason, ok := m.eng.SerialReason(pkg, call); ok {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(call.Pos()),
					Analyzer: m.Name(),
					Message: fmt.Sprintf(
						"iteration order of map %s flows into order-sensitive output (%s); collect and sort the keys, then range over the sorted slice",
						mapText, reason),
				})
			}
			return true
		})

		// Shape 2: remember accumulators appended to inside the loop.
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				name := taintedName(lhs)
				if name == "" {
					continue
				}
				if isAppendOrConcat(as.Rhs[i], name) {
					taints = append(taints, taint{name: name, loopPos: rng.For, mapExpr: mapText})
				}
			}
			return true
		})
		return true
	})

	if len(taints) == 0 {
		return out
	}

	// Shape 2, second half: walk the function again looking at calls
	// after each tainting loop. A sort over the accumulator clears the
	// taint; a sink over a still-tainted accumulator is a finding.
	n.inspectOwn(func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		args := make([]string, 0, len(call.Args))
		for _, a := range call.Args {
			if s := taintedName(a); s != "" {
				args = append(args, s)
			}
		}
		if isSortCall(pkg, call) {
			for i := range taints {
				for _, a := range args {
					if taints[i].name != "" && nameOverlap(taints[i].name, a) && call.Pos() > taints[i].loopPos {
						taints[i].name = "" // sorted: taint cleared
					}
				}
			}
			return true
		}
		reason, sink := m.eng.SerialReason(pkg, call)
		if !sink {
			return true
		}
		for i := range taints {
			if taints[i].name == "" || call.Pos() <= taints[i].loopPos {
				continue
			}
			for _, a := range args {
				if nameOverlap(taints[i].name, a) {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(call.Pos()),
						Analyzer: m.Name(),
						Message: fmt.Sprintf(
							"%s accumulates entries of map %s in iteration order and reaches order-sensitive output (%s) without a sort",
							taints[i].name, taints[i].mapExpr, reason),
					})
					taints[i].name = "" // one report per accumulator
				}
			}
		}
		return true
	})
	return out
}

// isAppendOrConcat reports whether rhs grows the named accumulator:
// name = append(name, ...) or name = name + x.
func isAppendOrConcat(rhs ast.Expr, name string) bool {
	switch x := rhs.(type) {
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(x.Args) == 0 {
			return false
		}
		return taintedName(x.Args[0]) == name
	case *ast.BinaryExpr:
		return x.Op == token.ADD &&
			(taintedName(x.X) == name || taintedName(x.Y) == name)
	}
	return false
}

// isSortCall reports whether the call establishes an order: anything in
// package sort or slices, or a function whose name mentions sorting.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	if fn := calleeObj(pkg, call.Fun); fn != nil && fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
		return strings.Contains(strings.ToLower(fn.Name()), "sort")
	}
	return false
}

// nameOverlap matches an accumulator against a call argument: exact, or
// one a field path under the other (img vs img.HDB).
func nameOverlap(a, b string) bool {
	return a == b || strings.HasPrefix(a, b+".") || strings.HasPrefix(b, a+".")
}
