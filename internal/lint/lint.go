package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer inspects one package and reports findings.
type Analyzer interface {
	// Name is the analyzer's identifier, used in output and in
	// //codalint:ignore directives.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Analyze reports the analyzer's findings for pkg.
	Analyze(pkg *Package) []Finding
}

// Analyzers returns the full production suite.
func Analyzers() []Analyzer {
	return []Analyzer{
		NewSimclock(DefaultAllowlist()),
		NewLockguard(),
		NewErrwrap(),
		NewTesthygiene(),
		NewObsname(),
		NewLockhold(),
	}
}

// interprocAnalyzer is implemented by analyzers that consume the
// whole-program engine; Run binds one shared engine before analysis.
type interprocAnalyzer interface {
	Analyzer
	Bind(*Engine)
}

// IgnoreDirective is the comment prefix that suppresses a finding:
//
//	//codalint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it. The
// reason is mandatory; a directive without one is itself a finding
// (analyzer "directive").
const IgnoreDirective = "//codalint:ignore"

// suppression records one well-formed ignore directive.
type suppression struct {
	file     string
	line     int // the directive's own line
	analyzer string
	reason   string
	used     bool
}

// collectSuppressions scans every comment in the package (test files
// included) for ignore directives. Malformed directives are returned as
// findings.
func collectSuppressions(pkg *Package) ([]*suppression, []Finding) {
	var sups []*suppression
	var bad []Finding
	files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
	files = append(files, pkg.Files...)
	files = append(files, pkg.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "codalint:ignore needs an analyzer name and a reason: //codalint:ignore <analyzer> <reason>",
					})
					continue
				}
				sups = append(sups, &suppression{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return sups, bad
}

// Run applies every analyzer to every package, honoring suppressions.
// Unused suppressions are reported so stale directives can't linger.
// Interprocedural analyzers share one engine built over all of pkgs, so
// summaries resolve across package boundaries whenever the packages are
// loaded together (LoadModule loads the whole module).
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	findings, _, _ := run(pkgs, analyzers)
	return findings
}

// run is Run plus the audit trail: every suppression with its used flag
// resolved after analysis, and the malformed directives, so the
// -ignores audit can flag stale entries without re-deriving anything.
func run(pkgs []*Package, analyzers []Analyzer) (findings []Finding, allSups []*suppression, malformed []Finding) {
	var eng *Engine
	for _, a := range analyzers {
		if ia, ok := a.(interprocAnalyzer); ok {
			if eng == nil {
				eng = NewEngine(pkgs)
			}
			ia.Bind(eng)
		}
	}
	var out []Finding
	for _, pkg := range pkgs {
		sups, bad := collectSuppressions(pkg)
		out = append(out, bad...)
		malformed = append(malformed, bad...)
		allSups = append(allSups, sups...)
		for _, a := range analyzers {
			for _, f := range a.Analyze(pkg) {
				if suppressed(sups, a.Name(), f) {
					continue
				}
				out = append(out, f)
			}
		}
		for _, s := range sups {
			if !s.used {
				out = append(out, Finding{
					Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
					Analyzer: "directive",
					Message:  fmt.Sprintf("unused codalint:ignore %s directive (nothing suppressed)", s.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out, allSups, malformed
}

// suppressed reports whether f is covered by a directive on its own
// line or on the line directly above.
func suppressed(sups []*suppression, analyzer string, f Finding) bool {
	for _, s := range sups {
		if s.analyzer != analyzer || s.file != f.Pos.Filename {
			continue
		}
		if s.line == f.Pos.Line || s.line == f.Pos.Line-1 {
			s.used = true
			return true
		}
	}
	return false
}
