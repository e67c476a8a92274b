package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test into dir and restores the old wd on cleanup.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

const cleanMain = `package main

func main() {}
`

// dirtyOps mimics a stray wall-clock read slipping into Venus's
// operation layer — the exact regression the suite exists to catch.
const dirtyOps = `package venus

import "time"

func Stamp() time.Time { return time.Now() }
`

// dirtyLock mimics an unguarded write slipping into a mu-owning struct.
const dirtyLock = `package venus

import "sync"

type Registry struct {
	mu sync.Mutex
	n  int
}

func (r *Registry) Bump() { r.n++ }

func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n = 0
}
`

func TestMainExitClean(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":     "module faux\n\ngo 1.22\n",
		"cmd/x/x.go": cleanMain,
		"internal/ok/ok.go": `package ok

func Add(a, b int) int { return a + b }
`,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, &out, &errb); code != ExitClean {
		t.Fatalf("clean module: exit %d, stderr: %s stdout: %s", code, errb.String(), out.String())
	}
}

func TestMainExitFindingsOnVenusTimeNow(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":                "module faux\n\ngo 1.22\n",
		"internal/venus/ops.go": dirtyOps,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, &out, &errb); code != ExitFindings {
		t.Fatalf("time.Now in internal/venus/ops.go: exit %d, want %d", code, ExitFindings)
	}
	if !strings.Contains(out.String(), "simclock") || !strings.Contains(out.String(), "time.Now") {
		t.Fatalf("finding output missing simclock diagnostic: %s", out.String())
	}
}

func TestMainExitFindingsOnUnguardedWrite(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":                "module faux\n\ngo 1.22\n",
		"internal/venus/reg.go": dirtyLock,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, &out, &errb); code != ExitFindings {
		t.Fatalf("unguarded write: exit %d, want %d", code, ExitFindings)
	}
	if !strings.Contains(out.String(), "lockguard") || !strings.Contains(out.String(), "Bump") {
		t.Fatalf("finding output missing lockguard diagnostic: %s", out.String())
	}
}

func TestMainExitUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main(nil, &out, &errb); code != ExitUsage {
		t.Fatalf("no args: exit %d, want %d", code, ExitUsage)
	}
	if code := Main([]string{"-h"}, &out, &errb); code != ExitUsage {
		t.Fatalf("-h: exit %d, want %d", code, ExitUsage)
	}
	if code := Main([]string{filepath.Join(t.TempDir(), "nope")}, &out, &errb); code != ExitUsage {
		t.Fatalf("nonexistent dir: exit %d, want %d", code, ExitUsage)
	}
}

func TestMainSpecificDirectory(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":                "module faux\n\ngo 1.22\n",
		"internal/venus/ops.go": dirtyOps,
		"internal/ok/ok.go":     "package ok\n\nfunc F() {}\n",
	})
	var out, errb bytes.Buffer
	if code := Main([]string{filepath.Join(root, "internal", "ok")}, &out, &errb); code != ExitClean {
		t.Fatalf("lint of clean subpackage: exit %d, stderr %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := Main([]string{filepath.Join(root, "internal", "venus")}, &out, &errb); code != ExitFindings {
		t.Fatalf("lint of dirty subpackage: exit %d, want %d", code, ExitFindings)
	}
}

func TestMainJSONOutput(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":                "module faux\n\ngo 1.22\n",
		"internal/venus/ops.go": dirtyOps,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"-json", "./..."}, &out, &errb); code != ExitFindings {
		t.Fatalf("-json with findings: exit %d, want %d (stderr %s)", code, ExitFindings, errb.String())
	}
	var decoded []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(decoded) == 0 {
		t.Fatal("-json output is empty despite findings")
	}
	f := decoded[0]
	if !strings.Contains(f.File, "ops.go") || f.Line == 0 || f.Col == 0 ||
		f.Analyzer != "simclock" || !strings.Contains(f.Message, "time.Now") {
		t.Fatalf("-json finding fields wrong: %+v", f)
	}
}

func TestMainIgnoresAudit(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod": "module faux\n\ngo 1.22\n",
		"internal/ok/ok.go": `package ok

import "time"

func Stamp() time.Time {
	//codalint:ignore simclock boot banner timestamp is cosmetic
	return time.Now()
}
`,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"-ignores", "./..."}, &out, &errb); code != ExitClean {
		t.Fatalf("-ignores: exit %d, want %d (stderr %s)", code, ExitClean, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "ok.go:6:") || !strings.Contains(s, "[simclock]") ||
		!strings.Contains(s, "boot banner timestamp is cosmetic") ||
		!strings.Contains(s, "1 suppression(s)") {
		t.Fatalf("-ignores audit output wrong:\n%s", s)
	}
}

func TestMainIgnoresAuditStale(t *testing.T) {
	// One directive still suppresses a real finding; the other sits on a
	// line that stopped triggering anything. The audit must keep the
	// first, flag the second as STALE, and fail with the dedicated exit
	// code.
	root := writeFixture(t, map[string]string{
		"go.mod": "module faux\n\ngo 1.22\n",
		"internal/ok/ok.go": `package ok

import "time"

func Stamp() time.Time {
	//codalint:ignore simclock boot banner timestamp is cosmetic
	return time.Now()
}

func Add(a, b int) int {
	//codalint:ignore simclock leftover from a removed wall-clock read
	return a + b
}
`,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"-ignores", "./..."}, &out, &errb); code != ExitStale {
		t.Fatalf("stale suppression: exit %d, want %d\nstdout: %s", code, ExitStale, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "boot banner timestamp is cosmetic") ||
		!strings.Contains(s, "STALE") ||
		!strings.Contains(s, "2 suppression(s), 1 stale, 0 malformed") {
		t.Fatalf("-ignores stale audit output wrong:\n%s", s)
	}
	if strings.Contains(s, "boot banner timestamp is cosmetic  STALE") {
		t.Fatalf("used suppression wrongly marked stale:\n%s", s)
	}
	if !strings.Contains(errb.String(), "suppression audit failed") {
		t.Fatalf("stale audit must report failure on stderr, got: %s", errb.String())
	}
}

func TestMainDeadline(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":     "module faux\n\ngo 1.22\n",
		"cmd/x/x.go": cleanMain,
	})
	chdir(t, root)

	// A generous budget passes and reports the measured wall-clock.
	var out, errb bytes.Buffer
	if code := Main([]string{"-deadline", "10m", "./..."}, &out, &errb); code != ExitClean {
		t.Fatalf("generous deadline: exit %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "wall-clock") {
		t.Fatalf("deadline run must report wall-clock, got: %s", errb.String())
	}

	// An impossible budget fails with the dedicated exit code.
	out.Reset()
	errb.Reset()
	if code := Main([]string{"-deadline=1ns", "./..."}, &out, &errb); code != ExitDeadline {
		t.Fatalf("1ns deadline: exit %d, want %d", code, ExitDeadline)
	}
	if !strings.Contains(errb.String(), "exceeded") {
		t.Fatalf("deadline failure must say exceeded, got: %s", errb.String())
	}
}

func TestMainBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-nope", "./..."}, &out, &errb); code != ExitUsage {
		t.Fatalf("unknown flag: exit %d, want %d", code, ExitUsage)
	}
	if code := Main([]string{"./...", "-deadline"}, &out, &errb); code != ExitUsage {
		t.Fatalf("-deadline without duration: exit %d, want %d", code, ExitUsage)
	}
	if code := Main([]string{"-deadline=banana", "./..."}, &out, &errb); code != ExitUsage {
		t.Fatalf("-deadline with junk duration: exit %d, want %d", code, ExitUsage)
	}
}
