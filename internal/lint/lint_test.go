package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe matches `// want "..." "..."` expectation comments in
// fixtures; quotedRe picks out each expectation.
var (
	wantRe   = regexp.MustCompile(`// want( "[^"]+")+`)
	quotedRe = regexp.MustCompile(`"([^"]+)"`)
)

// expectations maps file:line to the expected substrings of
// "[analyzer] message", one per finding on that line.
func expectations(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range quotedRe.FindAllStringSubmatch(wantRe.FindString(line), -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				want[key] = append(want[key], m[1])
			}
		}
	}
	return want
}

// runFixture loads the fixture package in testdata/<name>, runs the
// analyzers through Run (so suppressions apply), and checks the
// findings against the fixture's // want comments.
func runFixture(t *testing.T, name, relDir string, analyzers []Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := LoadDir(dir, relDir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	want := expectations(t, dir)
	got := Run([]*Package{pkg}, analyzers)

	for _, f := range got {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		text := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
		i := slices.IndexFunc(want[key], func(exp string) bool { return strings.Contains(text, exp) })
		if i < 0 {
			t.Errorf("unexpected finding: %s (line wants %q)", f, want[key])
			continue
		}
		want[key] = slices.Delete(want[key], i, i+1)
	}
	for key, exps := range want {
		for _, exp := range exps {
			t.Errorf("%s: expected finding matching %q, got none", key, exp)
		}
	}
}

func TestSimclockFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "simclock", "internal/fixture", []Analyzer{NewFence()})
}

func TestSimclockAllowlist(t *testing.T) {
	t.Parallel()
	// The same real-clock calls are clean when the package sits inside
	// an allowlisted directory...
	runFixture(t, "simclock_allowed", "cmd/fixture", []Analyzer{NewFence()})

	// ...and flagged when it does not.
	pkg, err := LoadDir(filepath.Join("testdata", "simclock_allowed"), "internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := Run([]*Package{pkg}, []Analyzer{NewFence()})
	if len(got) != 2 {
		t.Fatalf("outside the allowlist: got %d findings, want 2:\n%v", len(got), got)
	}
}

func TestSimclockFileAllowlist(t *testing.T) {
	t.Parallel()
	// A file-granular allowlist entry (applybatch's
	// "internal/server/apply.go") covers exactly that file.
	row := fences[0]
	row.allow = []string{"internal/fixture/allowed.go"}
	pkg, err := LoadDir(filepath.Join("testdata", "simclock_allowed"), "internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if got := Run([]*Package{pkg}, []Analyzer{Fence{row}}); len(got) != 0 {
		t.Fatalf("file allowlist entry did not cover the file: %v", got)
	}
}

// TestFenceFixture runs one row of each kind over the fixture's own
// objects, plus two rows that must stay silent: one allowing the
// fixture's whole directory, one covering another directory only.
func TestFenceFixture(t *testing.T) {
	t.Parallel()
	rows := []fenceRow{
		{name: "callrow", objs: []string{"internal/fixture.T.ship"}, kind: fenceCall, allow: []string{"internal/fixture.T.shipper"}},
		{name: "writerow", objs: []string{"internal/fixture.Stat.Links", "internal/fixture.Object.Data", "internal/fixture.Object.Children"}, kind: fenceWrite, allow: []string{"internal/cml"}},
		{name: "userow", objs: []string{"internal/fixture.T.memo"}, kind: fenceUse, allow: []string{"internal/fixture.T.walk"}},
		{name: "importrow", objs: []string{"strings"}, kind: fenceImport, allow: []string{"internal/fixture/allowed.go"}},
		{name: "dirrow", objs: []string{"internal/fixture.T.ship"}, kind: fenceCall, allow: []string{"internal/fixture"}},
		{name: "scoperow", objs: []string{"internal/fixture.T.ship"}, kind: fenceCall, in: []string{"internal/elsewhere"}},
	}
	for _, r := range fences {
		if r.name == "nogob" {
			rows = append(rows, r)
		}
	}
	runFixture(t, "fence", "internal/fixture", []Analyzer{Fence(rows)})
}

func TestLockguardFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockguard", "internal/fixture", []Analyzer{NewLockguard()})
}

func TestErrwrapFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "errwrap", "internal/fixture", []Analyzer{NewErrwrap()})
}

func TestTesthygieneFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "testhygiene", "internal/fixture", []Analyzer{NewTesthygiene()})
}

func TestObsnameFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "obsname", "internal/fixture", []Analyzer{NewObsname()})
}

func TestLockholdFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockhold", "internal/fixture", []Analyzer{NewLockhold()})
}

// TestLockwalkFixture runs both lock analyzers together over one
// function per control-flow shape of the critical-section walk.
func TestLockwalkFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockwalk", "internal/fixture", []Analyzer{NewLockguard(), NewLockhold()})
}

// writeFixture materializes a file tree under a fresh temp dir.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func loadSingle(t *testing.T, src string) *Package {
	t.Helper()
	dir := writeFixture(t, map[string]string{"fix.go": src})
	pkg, err := LoadDir(dir, "internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestDirectiveRequiresReason(t *testing.T) {
	t.Parallel()
	pkg := loadSingle(t, `package fix

import "time"

func f() time.Time {
	//codalint:ignore simclock
	return time.Now()
}
`)
	got := Run([]*Package{pkg}, []Analyzer{NewFence()})
	var directive, simclock int
	for _, f := range got {
		switch f.Analyzer {
		case "directive":
			directive++
			if !strings.Contains(f.Message, "reason") {
				t.Errorf("directive finding should demand a reason, got %q", f.Message)
			}
		case "simclock":
			simclock++
		}
	}
	if directive != 1 || simclock != 1 {
		t.Fatalf("reasonless ignore must be rejected AND not suppress: got %v", got)
	}
}

func TestDirectiveUnused(t *testing.T) {
	t.Parallel()
	pkg := loadSingle(t, `package fix

//codalint:ignore lockguard this suppresses nothing at all
func f() int { return 1 }
`)
	got := Run([]*Package{pkg}, Analyzers())
	if len(got) != 1 || got[0].Analyzer != "directive" || !strings.Contains(got[0].Message, "unused") {
		t.Fatalf("stale directive must be reported: got %v", got)
	}
}

func TestDirectiveSuppressesSameAndNextLine(t *testing.T) {
	t.Parallel()
	pkg := loadSingle(t, `package fix

import "time"

func sameLine() time.Time {
	return time.Now() //codalint:ignore simclock same-line suppression for this test
}

func nextLine() time.Time {
	//codalint:ignore simclock previous-line suppression for this test
	return time.Now()
}
`)
	if got := Run([]*Package{pkg}, []Analyzer{NewFence()}); len(got) != 0 {
		t.Fatalf("both suppression placements must work: got %v", got)
	}
}

func TestDirectiveWrongAnalyzerDoesNotSuppress(t *testing.T) {
	t.Parallel()
	pkg := loadSingle(t, `package fix

import "time"

func f() time.Time {
	//codalint:ignore lockguard wrong analyzer name on purpose
	return time.Now()
}
`)
	got := Run([]*Package{pkg}, []Analyzer{NewFence()})
	// The simclock finding survives, and the lockguard directive is
	// reported as unused.
	var simclock, unused bool
	for _, f := range got {
		if f.Analyzer == "simclock" {
			simclock = true
		}
		if f.Analyzer == "directive" && strings.Contains(f.Message, "unused") {
			unused = true
		}
	}
	if !simclock || !unused {
		t.Fatalf("wrong-analyzer ignore must not suppress: got %v", got)
	}
}

// TestRepoIsLintClean is the regression fence: the whole repository
// must stay codalint-clean. If this fails, either fix the finding or
// suppress it with a reasoned //codalint:ignore, within
// suppressionBudget.
func TestRepoIsLintClean(t *testing.T) {
	t.Parallel()
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, sups, _ := run(mod.Packages, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(sups) > suppressionBudget {
		t.Errorf("%d suppressions, over the budget of %d: remove one before adding one", len(sups), suppressionBudget)
	}
	// A fence row whose object was renamed away would fence nothing.
	resolvers := make([]func(string) types.Object, len(mod.Packages))
	for i, p := range mod.Packages {
		resolvers[i] = resolver(p)
	}
	for _, r := range fences {
		for _, spec := range slices.Concat(r.objs, r.allow) {
			if r.kind == fenceImport || isPath(spec) {
				continue
			}
			if !slices.ContainsFunc(resolvers, func(resolve func(string) types.Object) bool { return resolve(spec) != nil }) {
				t.Errorf("fence row %s: %s names nothing in the module", r.name, spec)
			}
		}
	}
}

func TestSimclockWALNotAllowlisted(t *testing.T) {
	t.Parallel()
	// internal/wal must take its flush clock by injection (wal.Options
	// carries a simtime.Clock for the interval-sync policy), so the
	// allowlist deliberately does not cover it. Pin that: the same
	// real-clock fixture loaded as if it lived at internal/wal is
	// flagged, and the live allowlist has no wal entry.
	pkg, err := LoadDir(filepath.Join("testdata", "simclock_allowed"), "internal/wal")
	if err != nil {
		t.Fatal(err)
	}
	if got := Run([]*Package{pkg}, []Analyzer{NewFence()}); len(got) != 2 {
		t.Fatalf("real-clock use under internal/wal: got %d findings, want 2:\n%v", len(got), got)
	}
	for _, entry := range realTime {
		if strings.Contains(entry, "wal") {
			t.Errorf("allowlist entry %q covers internal/wal", entry)
		}
	}
}
