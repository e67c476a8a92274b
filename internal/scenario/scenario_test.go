package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const corpusDir = "testdata/scenarios"

// readCorpus loads every .scn file, sorted by name.
func readCorpus(t *testing.T) (names []string, srcs map[string][]byte) {
	t.Helper()
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	srcs = map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".scn") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(e.Name(), ".scn")
		names = append(names, name)
		srcs[name] = src
	}
	sort.Strings(names)
	if len(names) < 4 {
		t.Fatalf("corpus holds %d scenarios, want >= 4", len(names))
	}
	return names, srcs
}

// TestCorpus is the single table-driven test the corpus runs under:
// every scenario file parses, validates, and — unless it is a matrix
// template — runs to a passing result.
func TestCorpus(t *testing.T) {
	names, srcs := readCorpus(t)
	ported := map[string]bool{"replicated_kill_catchup": false, "weaklink_replay": false}
	for _, name := range names {
		if _, ok := ported[name]; ok {
			ported[name] = true
		}
		t.Run(name, func(t *testing.T) {
			s, err := Parse(name, srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(s); err != nil {
				t.Fatal(err)
			}
			if s.IsTemplate() {
				// Templates are expanded and executed by TestMatrix.
				return
			}
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				for _, f := range res.Failures() {
					t.Error(f)
				}
			}
		})
	}
	for name, seen := range ported {
		if !seen {
			t.Errorf("corpus is missing the ported harness scenario %q", name)
		}
	}
}

// TestMatrix expands the crash template into the full crash-point x
// victim x churn sweep and runs every instance — the generated chaos
// matrix the issue asks for.
func TestMatrix(t *testing.T) {
	_, srcs := readCorpus(t)
	src, ok := srcs["crash_matrix"]
	if !ok {
		t.Fatal("corpus is missing crash_matrix.scn")
	}
	insts, err := ExpandMatrix("crash_matrix", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) < 12 {
		t.Fatalf("matrix expanded to %d instances, want >= 12", len(insts))
	}
	for _, inst := range insts {
		t.Run(inst.Name, func(t *testing.T) {
			res, err := Run(inst.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				for _, f := range res.Failures() {
					t.Error(f)
				}
			}
		})
	}
}

// TestRunDeterministic runs the same scenario several times and requires
// byte-identical result dumps and span traces — the determinism contract
// every metric assertion and golden file rests on. The trace is exported
// in recording order, unsorted, so it differs if the kernel ever runs the
// procs of one instant in a different order. Eight rounds, because the
// defect it exists for shows up as a rate: two goroutines runnable at
// one instant racing for the same link (under -race, about one pair of
// runs in seven differed before the ShipLog handler let its reply leave
// first).
func TestRunDeterministic(t *testing.T) {
	_, srcs := readCorpus(t)
	for _, name := range []string{"disconnected_reintegrate", "replicated_kill_catchup"} {
		var first, firstTrace []byte
		for round := 0; round < 8; round++ {
			s, err := Parse(name, srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("%s round %d: %v", name, round, res.Failures())
			}
			dump := res.DumpJSON()
			if round == 0 {
				first, firstTrace = dump, res.Trace
			} else if !bytes.Equal(dump, first) {
				t.Errorf("%s: identical-seed runs 0 and %d produced different result dumps (%d vs %d bytes)",
					name, round, len(first), len(dump))
				break
			} else if !bytes.Equal(res.Trace, firstTrace) {
				t.Errorf("%s: identical-seed runs 0 and %d exported different traces (%d vs %d bytes)",
					name, round, len(firstTrace), len(res.Trace))
				break
			}
		}
	}
}

// TestGoldenDumps pins the obs registry dump of two seeded corpus runs
// byte-for-byte (extending TestRegistryDumpDeterministic to the DSL
// path). Regenerate with: go test ./internal/scenario -run Golden -update
func TestGoldenDumps(t *testing.T) {
	_, srcs := readCorpus(t)
	for _, name := range []string{"hoard_disconnect", "disconnected_reintegrate"} {
		t.Run(name, func(t *testing.T) {
			s, err := Parse(name, srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatal(res.Failures())
			}
			golden := filepath.Join("testdata", "golden", name+".metrics.json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, res.Metrics, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(res.Metrics, want) {
				t.Errorf("obs dump for %s differs from golden file (%d vs %d bytes); "+
					"run with -update if the change is intended", name, len(res.Metrics), len(want))
			}
		})
	}
}

// TestGoldenTrace pins the Perfetto span export of the weak-link replay
// byte-for-byte: two identical seeded runs must serialize the same trace,
// and that trace must match the checked-in golden file. Regenerate with:
// go test ./internal/scenario -run Golden -update
func TestGoldenTrace(t *testing.T) {
	_, srcs := readCorpus(t)
	const name = "weaklink_replay"
	var traces [][]byte
	for round := 0; round < 2; round++ {
		s, err := Parse(name, srcs[name])
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatal(res.Failures())
		}
		if len(res.Trace) == 0 {
			t.Fatal("run captured no span trace")
		}
		traces = append(traces, res.Trace)
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("two identical-seed runs exported different traces (%d vs %d bytes)",
			len(traces[0]), len(traces[1]))
	}
	golden := filepath.Join("testdata", "golden", name+".trace.json")
	if *update {
		if err := os.WriteFile(golden, traces[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(traces[0], want) {
		t.Errorf("trace export differs from golden file (%d vs %d bytes); "+
			"run with -update if the change is intended", len(traces[0]), len(want))
	}
}

// TestParseErrors pins the parser's error surface: every malformed
// input returns a wrapped error naming its line (the last line of each
// case), never a panic. Every directive, step kind and assertion kind
// has a row.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unterminated quote", `write c /f "oops`, "unterminated"},
		{"unknown directive", "frobnicate now", "unknown directive"},
		{"topology after schedule", "group g members 1\nclient c id 1\nmount c v\ndisconnect c\nvolume v", "after the first schedule step"},
		{"bad duration", "after sideways", "offset"},
		{"quoted directive", `"group" g members 3`, "must not be quoted"},
		{"trailing args", "group g members 3 journal extra", "unknown group option"},
		{"axis no values", "matrix crash", "no values"},
		{"range too big", "matrix n 1..99999", "max 1000"},
		{"range overflows", "matrix n -9223372036854775808..9223372036854775807", "max 1000"},
		{"zeros too big", `write c /f zeros 99999999999`, "out of range"},
		{"metric without bound", "assert metric venus_cml_records", "needs a bound"},
		{"bad label", "assert metric m novalue == 1", "not key=value"},
		{"unexpanded var", "group g members 1\nclient c id 1\nkill ${victim}", "unexpanded variable ${victim}"},
		{"unexpanded var in content", `write c /f "v${n}"`, "unexpanded variable ${n}"},
		{"duplicate axis", "matrix a 1 2\nmatrix a 3", `duplicate axis "a"`},
		{"bad axis name", "matrix ${a} 1", "bad axis name"},

		// Header and topology directives.
		{"scenario no name", "scenario", "missing name"},
		{"doc no text", "doc", "missing doc text"},
		{"seed not integer", "seed x", "seed: strconv.ParseInt"},
		{"group no members", "group g", `missing "members"`},
		{"volume bad keyword", "volume v grp g", `expected "group", got "grp"`},
		{"seed-file no content", "seed-file v p", "missing content"},
		{"seed-dir trailing", "seed-dir v p x", "trailing arguments"},
		{"trace bad option", "trace t segment s bogus", "unknown trace option"},
		{"trace negative scale", "trace t segment s scale -5", "scale percent must not be negative"},
		{"client id out of range", "client c id 0", "client id 0 out of range"},
		{"client bad option", "client c id 1 bogus", "unknown client option"},
		{"client negative cache", "client c id 1 cache -1", "cache bytes must not be negative"},
		{"client negative chunk seconds", "client c id 1 chunk-seconds -5", "chunk seconds must not be negative"},
		{"mount no volume", "mount c", "missing volume"},

		// The twenty step kinds.
		{"at negative", "at -1s", "offset must not be negative"},
		{"write no content", "write c /f", "missing content"},
		{"write negative zeros", "write c /f zeros -1", "zeros size must not be negative"},
		{"mkdir no path", "mkdir c", "missing path"},
		{"remove no client", "remove", "missing client"},
		{"read bad keyword", "read c /f foo", `expected "expect"`},
		{"disconnect trailing", "disconnect c x", "trailing arguments"},
		{"write-disconnect no client", "write-disconnect", "missing client"},
		{"connect bad bandwidth", "connect c bw x", "bandwidth: strconv.ParseInt"},
		{"connect negative bandwidth", "connect c bw -5", "bandwidth must not be negative"},
		{"hoard no priority", "hoard c /p", `missing "priority"`},
		{"hoard-walk quoted client", `hoard-walk "c"`, "client must not be quoted"},
		{"reintegrate no client", "reintegrate", "missing client"},
		{"link bad mode", "link c g sideways", "unknown link mode"},
		{"link negative bandwidth", "link c g bw -9600", "bandwidth must not be negative"},
		{"flap too many", "flap c g 99999 period 1s", "out of range"},
		{"flap negative count", "flap c g -1 period 1s", "flap count must not be negative"},
		{"kill no target", "kill", "missing target"},
		{"crash-arm zero", "crash-arm g0 0", "must be >= 1"},
		{"restart bad keyword", "restart g0 frm g1", `expected "from"`},
		{"converge no target", "converge", "missing target"},
		{"drain bad deadline", "drain c within x", "deadline"},
		{"replay bad keyword", "replay c t cold 1s", `expected "warm"`},

		// The ten assertion kinds.
		{"assert unknown kind", "assert bogus", "unknown assertion kind"},
		{"assert identical trailing", "assert identical g extra", "trailing arguments"},
		{"assert file no path", "assert file g v", "missing path"},
		{"assert client-file no content", "assert client-file c p", "missing content"},
		{"assert cml-empty no client", "assert cml-empty", "missing client"},
		{"assert stamp bad op", "assert stamp g v ~ 3", "not a comparison operator"},
		{"assert failovers no bound", "assert failovers c", "missing comparison"},
		{"assert elapsed bad bound", "assert elapsed < x", "elapsed bound"},
		{"assert state no state", "assert state c", "missing state"},
		{"assert spans bad mode", "assert spans s bogus", "not count or dur"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", []byte(tc.src))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%q) error %q does not contain %q", tc.src, err, tc.want)
			}
			if at := fmt.Sprintf("scenario t:%d:", strings.Count(tc.src, "\n")+1); !strings.Contains(err.Error(), at) {
				t.Errorf("error %q does not name the file and line (%s)", err, at)
			}
		})
	}
}

// TestValidateErrors pins reference checking.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no group", "client c id 1", "no group declared"},
		{"unknown mount volume", "group g members 1\nclient c id 1\nmount c nope", "unknown volume"},
		{"duplicate client id", "group g members 1\nclient a id 1\nclient b id 1", "already used"},
		{"kill a group", "group g members 2\nkill g", "single server"},
		{"member out of range", "group g members 2\nkill g5", "has 2 members"},
		{"crash-arm without journal", "group g members 1\nclient c id 1\ncrash-arm g0 1", "journal"},
		{"restart with seeds", "group g members 1 journal\nvolume v\nseed-file v f \"x\"\nclient c id 1\nrestart g0", "not journaled"},
		{"unknown state", "group g members 1\nclient c id 1\nassert state c confused", "unknown state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse("t", []byte(tc.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = Validate(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// TestMatrixExpansion pins instance naming, ordering, and substitution.
func TestMatrixExpansion(t *testing.T) {
	src := []byte(`scenario tiny
matrix a 1..2
matrix b x y
group g members 1
volume v
client c id 1
mount c v
write c /coda/v/f-${a} "${b}"
`)
	insts, err := ExpandMatrix("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"tiny_a-1_b-x", "tiny_a-1_b-y", "tiny_a-2_b-x", "tiny_a-2_b-y"}
	if len(insts) != len(wantNames) {
		t.Fatalf("got %d instances, want %d", len(insts), len(wantNames))
	}
	for i, inst := range insts {
		if inst.Name != wantNames[i] {
			t.Errorf("instance %d named %q, want %q", i, inst.Name, wantNames[i])
		}
		if inst.Scenario.IsTemplate() {
			t.Errorf("instance %q still a template", inst.Name)
		}
		if strings.Contains(string(inst.Src), "${") {
			t.Errorf("instance %q has unexpanded vars:\n%s", inst.Name, inst.Src)
		}
	}
	if got := insts[3].Scenario.Steps[0].Path; got != "/coda/v/f-2" {
		t.Errorf("last instance path = %q, want /coda/v/f-2", got)
	}
	if got := string(insts[3].Scenario.Steps[0].Data); got != "y" {
		t.Errorf("last instance data = %q, want y", got)
	}
}

// FuzzParseScenario: malformed input must return wrapped errors, never
// panic — the same contract wire.Decode honours for corrupt packets. Validate
// and matrix expansion ride along under the same rule.
func FuzzParseScenario(f *testing.F) {
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".scn") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("group g members 3 journal\nvolume v\n")
	f.Add("matrix a 1..5\nkill ${a}\n")
	f.Add(`write c /p "unterminated`)
	f.Add("assert metric m k=v == 3\nassert stamp g v >= -1\n")
	f.Add("\x00\xff group")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse("fuzz", []byte(src))
		if err != nil {
			return
		}
		// Parsed scenarios must survive validation and expansion without
		// panicking either; errors are fine.
		if err := Validate(s); err != nil {
			return
		}
		if s.IsTemplate() {
			_, _ = ExpandMatrix("fuzz", []byte(src))
		}
	})
}
