// Package lint is the repository's custom static-analysis suite
// (codalint). It enforces the invariants that keep the reproduction
// deterministic and race-free:
//
//   - simclock: all simulated code blocks and reads time only through
//     simtime.Clock; raw package time / math/rand default-source calls
//     are confined to a small allowlist (the clock veneer itself, the
//     real-UDP adapter, and cmd/ entry points).
//   - lockguard: structs owning a `mu sync.Mutex`/`sync.RWMutex` must
//     not export methods that touch mutated sibling fields without
//     acquiring the lock.
//   - errwrap: errors propagated via fmt.Errorf must use %w so callers
//     can errors.Is/As against the sentinels in internal/venus/errors.go;
//     bare discarded error returns are flagged.
//   - testhygiene: test helpers call t.Helper(); tests never block on
//     real time.Sleep (they should run under a simtime.Sim clock).
//
// The suite is built from the standard library only (go/parser,
// go/types, go/importer) so `go build ./...` stays hermetic: module
// packages are parsed, topologically sorted by their intra-module
// imports, and type-checked against a chained importer that resolves
// standard-library dependencies from source.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// One standard-library importer per process, and the file set every load
// records positions in (the importer's must be the same): type-checking
// fmt, sync, time and their dependencies from source is most of a load.
// The source importer is not safe for concurrent use; stdMu serializes it.
var (
	stdFset = token.NewFileSet()
	stdMu   sync.Mutex
	stdImp  = importer.ForCompiler(stdFset, "source", nil)
)

// Package is one type-checked module package plus its (syntax-only)
// test files.
type Package struct {
	// Path is the full import path ("repro/internal/venus").
	Path string
	// RelDir is the directory relative to the module root
	// ("internal/venus"); analyzers use it for allowlist decisions.
	RelDir string
	// Dir is the absolute directory.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File // non-test files, type-checked
	// TestFiles are the package's *_test.go files. They are parsed but
	// NOT type-checked (external _test packages would need the package
	// under test compiled); analyzers over tests are syntactic.
	TestFiles []*ast.File

	Types     *types.Package
	TypesInfo *types.Info
}

// Module is a loaded, type-checked module tree.
type Module struct {
	Root     string // absolute module root directory
	ModPath  string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // topological order (dependencies first)
}

// skipDir reports directories the loader never descends into.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// FindModuleRoot walks upward from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// parsedPkg is a package after parsing, before type checking.
type parsedPkg struct {
	path      string
	relDir    string
	dir       string
	files     []*ast.File
	testFiles []*ast.File
	imports   []string // intra-module imports only
}

// LoadModule parses and type-checks every package under the module
// rooted at (or above) dir. Returned packages are in dependency order.
func LoadModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	var parsed []*parsedPkg
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		pp, err := parseDir(stdFset, path)
		if err != nil {
			return err
		}
		if pp == nil {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pp.relDir = filepath.ToSlash(rel)
		if pp.relDir == "." {
			pp.path = modPath
			pp.relDir = ""
		} else {
			pp.path = modPath + "/" + pp.relDir
		}
		for _, f := range pp.files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					pp.imports = append(pp.imports, p)
				}
			}
		}
		parsed = append(parsed, pp)
		return nil
	})
	if err != nil {
		return nil, err
	}

	ordered, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}

	mod := &Module{Root: root, ModPath: modPath, Fset: stdFset}
	checked := make(map[string]*types.Package)
	imp := &chainImporter{modPath: modPath, checked: checked}
	for _, pp := range ordered {
		pkg, err := typeCheck(stdFset, pp, imp)
		if err != nil {
			return nil, err
		}
		checked[pp.path] = pkg.Types
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// LoadDir parses and type-checks the single package in dir, resolving
// only standard-library imports. It is the fixture loader used by the
// analyzer tests; relDir names the package for allowlist decisions.
func LoadDir(dir, relDir string) (*Package, error) {
	pp, err := parseDir(stdFset, dir)
	if err != nil {
		return nil, err
	}
	if pp == nil {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	pp.path = relDir
	pp.relDir = relDir
	imp := &chainImporter{modPath: "\x00none", checked: map[string]*types.Package{}}
	return typeCheck(stdFset, pp, imp)
}

// parseDir parses the Go files of dir into a parsedPkg, or nil if the
// directory holds no Go files.
func parseDir(fset *token.FileSet, dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pp := &parsedPkg{dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			pp.testFiles = append(pp.testFiles, f)
		} else {
			pp.files = append(pp.files, f)
		}
	}
	if len(pp.files) == 0 && len(pp.testFiles) == 0 {
		return nil, nil
	}
	return pp, nil
}

// topoSort orders packages so every package follows its intra-module
// dependencies.
func topoSort(pkgs []*parsedPkg) ([]*parsedPkg, error) {
	byPath := make(map[string]*parsedPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*parsedPkg
	var visit func(p *parsedPkg) error
	visit = func(p *parsedPkg) error {
		switch state[p.path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", p.path)
		}
		state[p.path] = visiting
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.path] = done
		order = append(order, p)
		return nil
	}
	// Deterministic order regardless of filesystem iteration.
	sorted := make([]*parsedPkg, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeCheck runs go/types over pp's non-test files.
func typeCheck(fset *token.FileSet, pp *parsedPkg, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var tpkg *types.Package
	if len(pp.files) == 0 {
		// Test-only package: nothing to type-check; testhygiene runs
		// syntactically over the test files.
		tpkg = types.NewPackage(pp.path, "main")
	} else {
		var firstErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		var err error
		tpkg, err = conf.Check(pp.path, fset, pp.files, info)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pp.path, firstErr)
		}
	}
	return &Package{
		Path:      pp.path,
		RelDir:    pp.relDir,
		Dir:       pp.dir,
		Fset:      fset,
		Files:     pp.files,
		TestFiles: pp.testFiles,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// chainImporter serves module-internal packages from the already
// type-checked set and everything else (the standard library) from the
// process's source importer.
type chainImporter struct {
	modPath string
	checked map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		if pkg, ok := c.checked[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("module package %s not yet type-checked (import cycle?)", path)
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}
