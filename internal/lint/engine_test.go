package lint

import (
	"strings"
	"testing"
)

// engineModule materializes a three-package module whose effects must
// propagate leaf → mid → top across two package boundaries: a channel
// park, an fmt write that does not block, and a lock acquire, each
// wrapped once per hop.
func engineModule(t *testing.T) *Module {
	t.Helper()
	root := writeFixture(t, map[string]string{
		"go.mod": "module faux\n\ngo 1.22\n",
		"internal/leaf/leaf.go": `package leaf

import (
	"fmt"
	"io"
	"sync"
)

func Park() {
	ch := make(chan int)
	<-ch
}

func Emit(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}

type Gate struct {
	mu sync.Mutex
	N  int
}

func (g *Gate) Bump() {
	g.mu.Lock()
	g.N++
	g.mu.Unlock()
}
`,
		"internal/mid/mid.go": `package mid

import (
	"io"

	"faux/internal/leaf"
)

func Relay()             { leaf.Park() }
func Out(w io.Writer)    { leaf.Emit(w, "x") }
func Touch(g *leaf.Gate) { g.Bump() }
`,
		"internal/top/top.go": `package top

import (
	"io"

	"faux/internal/leaf"
	"faux/internal/mid"
)

func Caller()            { mid.Relay() }
func Writer(w io.Writer) { mid.Out(w) }
func Hold(g *leaf.Gate)  { mid.Touch(g) }
func Spawn(g *leaf.Gate) { go mid.Touch(g) }
`,
	})
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// modPkg finds a loaded package by its module-relative directory.
func modPkg(t *testing.T, mod *Module, relDir string) *Package {
	t.Helper()
	for _, p := range mod.Packages {
		if p.RelDir == relDir {
			return p
		}
	}
	t.Fatalf("package %s not loaded", relDir)
	return nil
}

// engineNode finds a graph node by display name within a package.
func engineNode(t *testing.T, e *Engine, pkg *Package, name string) *FuncNode {
	t.Helper()
	for _, n := range e.PkgNodes(pkg) {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %s not found in %s", name, pkg.RelDir)
	return nil
}

func TestEngineCrossPackageFixpoint(t *testing.T) {
	t.Parallel()
	mod := engineModule(t)
	eng := NewEngine(mod.Packages)
	top := modPkg(t, mod, "internal/top")

	caller := engineNode(t, eng, top, "Caller")
	if !caller.Blocks || !strings.Contains(caller.BlockVia, "Relay") ||
		!strings.Contains(caller.BlockVia, "channel receive") {
		t.Errorf("Caller: Blocks=%v via %q; want blocking through Relay down to a channel receive",
			caller.Blocks, caller.BlockVia)
	}
	if writer := engineNode(t, eng, top, "Writer"); writer.Blocks {
		t.Errorf("Writer inherits blocking it never calls: via %q", writer.BlockVia)
	}

	// Acquires crosses both boundaries, marked direct only where the
	// Lock is, and never through a go statement.
	const gate = "leaf.Gate.mu"
	if direct, ok := engineNode(t, eng, top, "Hold").Acquires[gate]; !ok || direct {
		t.Errorf("Hold: Acquires[%s] = %v, %v; want acquired through Touch, not directly", gate, direct, ok)
	}
	if acq := engineNode(t, eng, top, "Spawn").Acquires; len(acq) != 0 {
		t.Errorf("Spawn inherits the spawned goroutine's locks: %v", acq)
	}

	// Leaf facts stay local truths: the fmt write does not block, and
	// the lock is taken in Bump's own body.
	leaf := modPkg(t, mod, "internal/leaf")
	if n := engineNode(t, eng, leaf, "Emit"); n.Blocks {
		t.Errorf("Emit must not block (via %q)", n.BlockVia)
	}
	if direct := engineNode(t, eng, leaf, "(*Gate).Bump").Acquires[gate]; !direct {
		t.Errorf("Bump must acquire %s directly", gate)
	}
}

// TestEngineRootsMatchBySuffix pins that the effect-root tables match
// repository packages by path suffix, so a fixture module's
// faux/internal/simtime is recognized exactly like repro/internal/simtime.
func TestEngineRootsMatchBySuffix(t *testing.T) {
	t.Parallel()
	root := writeFixture(t, map[string]string{
		"go.mod": "module faux\n\ngo 1.22\n",
		"internal/simtime/q.go": `package simtime

type Queue struct{}

func (Queue) Get() int { return 0 }
`,
		"internal/use/use.go": `package use

import "faux/internal/simtime"

func Drain(q simtime.Queue) int { return q.Get() }
`,
	})
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(mod.Packages)
	drain := engineNode(t, eng, modPkg(t, mod, "internal/use"), "Drain")
	if !drain.Blocks || !strings.Contains(drain.BlockVia, "simtime.Queue.Get") {
		t.Errorf("Drain: Blocks=%v via %q; want the simtime.Queue.Get root matched by suffix",
			drain.Blocks, drain.BlockVia)
	}
}
