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

func TestMaporderCrossPackage(t *testing.T) {
	mod := loadFauxModule(t, map[string]string{
		"internal/enc/enc.go": `package enc

import (
	"fmt"
	"io"
)

// Write is the serializing leaf; the map range lives a package away.
func Write(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}
`,
		"internal/dump/dump.go": `package dump

import (
	"io"

	"faux/internal/enc"
)

func Dump(w io.Writer, m map[string]int) {
	for k := range m {
		enc.Write(w, k)
	}
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewMaporder()})
	if len(got) != 1 {
		t.Fatalf("cross-package maporder: %d findings, want 1:\n%v", len(got), got)
	}
	f := got[0]
	if !strings.Contains(f.Pos.Filename, "dump.go") ||
		!strings.Contains(f.Message, "iteration order of map m") ||
		!strings.Contains(f.Message, "Write") {
		t.Fatalf("cross-package maporder finding: %v", f)
	}
}

func TestLockholdCrossPackage(t *testing.T) {
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

func TestLockorderCrossPackage(t *testing.T) {
	// The cycle's two acquires each happen one package away from where
	// the order is violated: svc holds a's lock while calling b's
	// lockVolume-style helper and vice versa. The lockset summaries
	// must carry both the Acquires set and the open-section balance
	// across the package boundary for the cycle to close.
	mod := loadFauxModule(t, map[string]string{
		"internal/east/east.go": `package east

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
		"internal/west/west.go": `package west

import "sync"

type Gate struct {
	mu sync.Mutex
	N  int
}

func With(g *Gate) *Gate {
	g.mu.Lock()
	return g
}

func Release(g *Gate) { g.mu.Unlock() }
`,
		"internal/svc/svc.go": `package svc

import (
	"faux/internal/east"
	"faux/internal/west"
)

func Forward(e *east.Gate, w *west.Gate) {
	east.With(e)
	west.With(w)
	w.N++
	west.Release(w)
	east.Release(e)
}

func Backward(e *east.Gate, w *west.Gate) {
	west.With(w)
	east.With(e)
	e.N++
	east.Release(e)
	west.Release(w)
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewLockorder()})
	if len(got) != 1 {
		t.Fatalf("cross-package lockorder: %d findings, want 1 cycle:\n%v", len(got), got)
	}
	f := got[0]
	if !strings.Contains(f.Pos.Filename, "svc.go") ||
		!strings.Contains(f.Message, "lock-order cycle") ||
		!strings.Contains(f.Message, "east.Gate.mu") ||
		!strings.Contains(f.Message, "west.Gate.mu") ||
		!strings.Contains(f.Message, "With") {
		t.Fatalf("cross-package lockorder finding: %v", f)
	}
}

func TestAllocscanCrossPackage(t *testing.T) {
	// The allocation is two hops and one package boundary away from the
	// hotpath root: hot Ship -> frame.Build -> frame.grow. The finding
	// must land at the root's call site with the via-chain, and the
	// pooled path through the same package must stay clean.
	mod := loadFauxModule(t, map[string]string{
		"internal/frame/frame.go": `package frame

func grow(n int) []byte {
	return make([]byte, n)
}

// Build allocates transitively through grow.
func Build(n int) []byte {
	return grow(n)
}

// Emit consumes a framed buffer without retaining it.
func Emit(b []byte) {}
`,
		"internal/bufpool/bufpool.go": `package bufpool

import "sync"

var pool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// Get hands out pooled memory: a recognized sink, not a source.
func Get(n int) *[]byte {
	return pool.Get().(*[]byte)
}

func Put(bp *[]byte) {
	*bp = (*bp)[:0]
	pool.Put(bp)
}
`,
		"internal/hot/hot.go": `package hot

import (
	"faux/internal/bufpool"
	"faux/internal/frame"
)

//codalint:hotpath wire framing
func Ship(n int) []byte {
	return frame.Build(n)
}

//codalint:hotpath wire framing, pooled
func ShipPooled(body []byte) {
	bp := bufpool.Get(len(body))
	*bp = append(*bp, body...)
	frame.Emit(*bp)
	bufpool.Put(bp)
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewAllocscan()})
	if len(got) != 1 {
		t.Fatalf("cross-package allocscan: %d findings, want 1:\n%v", len(got), got)
	}
	f := got[0]
	if !strings.Contains(f.Pos.Filename, "hot.go") ||
		!strings.Contains(f.Message, "hotpath Ship") ||
		!strings.Contains(f.Message, "Build") ||
		!strings.Contains(f.Message, "grow") {
		t.Fatalf("cross-package allocscan finding: %v", f)
	}
}

func TestLeakcheckCrossPackage(t *testing.T) {
	mod := loadFauxModule(t, map[string]string{
		"internal/daemon/daemon.go": `package daemon

// Spin is the unstoppable loop; both spawns live a package away.
func Spin() {
	for {
	}
}
`,
		"internal/simtime/clock.go": `package simtime

type Clock struct{}

func (Clock) Go(fn func()) { go fn() }
`,
		"internal/owner/owner.go": `package owner

import (
	"faux/internal/daemon"
	"faux/internal/simtime"
)

func Start() {
	go daemon.Spin()
}

func StartVia(c simtime.Clock) {
	c.Go(daemon.Spin)
}
`,
	})
	got := Run(mod.Packages, []Analyzer{NewLeakcheck()})
	if len(got) != 2 {
		t.Fatalf("cross-package leakcheck: %d findings, want 2 (go stmt + clock spawn):\n%v", len(got), got)
	}
	for _, f := range got {
		if !strings.Contains(f.Pos.Filename, "owner.go") ||
			!strings.Contains(f.Message, "can never stop") ||
			!strings.Contains(f.Message, "Spin") {
			t.Fatalf("cross-package leakcheck finding: %v", f)
		}
	}
}
