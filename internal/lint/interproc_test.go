package lint

import (
	"strings"
	"testing"
)

// These tests are the acceptance fence for the interprocedural engine:
// each analyzer must see its effect through at least one call hop that
// crosses a package boundary.

// loadFauxModule materializes and loads a module named faux.
func loadFauxModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	all := map[string]string{"go.mod": "module faux\n\ngo 1.22\n"}
	for k, v := range files {
		all[k] = v
	}
	mod, err := LoadModule(writeFixture(t, all))
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestLockholdCrossPackage(t *testing.T) {
	t.Parallel()
	mod := loadFauxModule(t, map[string]string{
		"internal/rpcish/rpcish.go": `package rpcish

// Call parks on a reply channel, like an rpc2 round-trip.
func Call() int {
	ch := make(chan int)
	return <-ch
}
`,
		"internal/srv/srv.go": `package srv

import (
	"sync"

	"faux/internal/rpcish"
)

type Server struct {
	mu sync.Mutex
	n  int
}

func (s *Server) Probe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = rpcish.Call()
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewLockhold()})
	if len(got) != 1 {
		t.Fatalf("cross-package lockhold: %d findings, want 1:\n%v", len(got), got)
	}
	f := got[0]
	if !strings.Contains(f.Pos.Filename, "srv.go") ||
		!strings.Contains(f.Message, "s.mu") ||
		!strings.Contains(f.Message, "rpcish.Call") {
		t.Fatalf("cross-package lockhold finding: %v", f)
	}
}

func TestLockholdCrossPackageHelperHeld(t *testing.T) {
	t.Parallel()
	// The region is opened by a lockVolume-style helper one package
	// away and the park is in a third: the helper's positive balance
	// and the callee's Blocks bit must both cross a package boundary.
	mod := loadFauxModule(t, map[string]string{
		"internal/rpcish/rpcish.go": `package rpcish

func Call() int {
	ch := make(chan int)
	return <-ch
}
`,
		"internal/gate/gate.go": `package gate

import "sync"

type Gate struct {
	mu sync.Mutex
	N  int
}

// With hands the caller an open critical section.
func With(g *Gate) *Gate {
	g.mu.Lock()
	return g
}

func Release(g *Gate) { g.mu.Unlock() }
`,
		"internal/svc/svc.go": `package svc

import (
	"faux/internal/gate"
	"faux/internal/rpcish"
)

func Probe(g *gate.Gate) {
	gate.With(g)
	g.N = rpcish.Call()
	gate.Release(g)
	g.N = rpcish.Call()
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewLockhold()})
	if len(got) != 1 {
		t.Fatalf("cross-package helper-held lockhold: %d findings, want 1:\n%v", len(got), got)
	}
	f := got[0]
	if !strings.Contains(f.Pos.Filename, "svc.go") || f.Pos.Line != 10 ||
		!strings.Contains(f.Message, "gate.Gate.mu (acquired line 9)") ||
		!strings.Contains(f.Message, "rpcish.Call") {
		t.Fatalf("cross-package helper-held lockhold finding: %v", f)
	}
}
