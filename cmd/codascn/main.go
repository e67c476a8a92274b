// Command codascn runs declarative scenario files (internal/scenario):
// experiment topologies, fault schedules, and assertions executed
// deterministically on the simulated substrate.
//
// Usage:
//
//	codascn run [-json] [-trace out.json] [-cpuprofile f] [-memprofile f] file.scn...
//	                                     execute scenarios, report pass/fail;
//	                                     -trace writes the Perfetto span export
//	                                     (exactly one scenario)
//	codascn validate file.scn...         parse + validate (templates: expand and validate every cell)
//	codascn list file.scn|dir...         one line per scenario: name, kind, doc
//	codascn matrix [-out dir] [-run] [-json] template.scn
//	                                     expand a template's axes; -out writes
//	                                     instance files, -run executes them
//
// Exit status: 0 ok, 1 scenario failure (a step failed or an assertion
// did not hold), 2 usage, load, or validation error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/profile"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "validate":
		return cmdValidate(args[1:])
	case "list":
		return cmdList(args[1:])
	case "matrix":
		return cmdMatrix(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "codascn: unknown command %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  codascn run [-json] [-trace out.json] [-cpuprofile f] [-memprofile f] file.scn...
  codascn validate file.scn...
  codascn list file.scn|dir...
  codascn matrix [-out dir] [-run] [-json] template.scn
`)
}

// load reads and parses one scenario file.
func load(path string) (*scenario.Scenario, []byte, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), ".scn")
	s, err := scenario.Parse(name, src)
	if err != nil {
		return nil, nil, err
	}
	return s, src, nil
}

// expand turns file arguments into a flat .scn list, walking directories.
func expand(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, a)
			continue
		}
		ents, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".scn") {
				out = append(out, filepath.Join(a, e.Name()))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func cmdRun(args []string) (code int) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print each result as its full JSON dump")
	traceOut := fs.String("trace", "", "write the run's Perfetto (Chrome trace-event) span export to this file; requires exactly one scenario")
	prof := profile.AddFlags(fs)
	if fs.Parse(args) != nil || fs.NArg() == 0 {
		usage()
		return 2
	}
	files, err := expand(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "codascn:", err)
		return 2
	}
	if *traceOut != "" && len(files) != 1 {
		fmt.Fprintf(os.Stderr, "codascn: -trace needs exactly one scenario, got %d\n", len(files))
		return 2
	}
	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "codascn:", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			code = 2
		}
	}()
	for _, path := range files {
		s, _, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		if s.IsTemplate() {
			fmt.Fprintf(os.Stderr, "codascn: %s is a template; use: codascn matrix -run %s\n", path, path)
			return 2
		}
		res, err := scenario.Run(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		if *jsonOut {
			_, _ = os.Stdout.Write(res.DumpJSON())
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, res.Trace, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "codascn:", err)
				return 2
			}
		}
		code = report(res, code)
	}
	return code
}

// report prints one result line (plus failures) and folds the exit code.
func report(res *scenario.Result, code int) int {
	if res.OK() {
		fmt.Printf("PASS %s (%d steps, %d asserts, %s sim)\n",
			res.Scenario, res.Steps, len(res.Asserts), simDur(res.ElapsedSimUS))
		return code
	}
	fmt.Printf("FAIL %s\n", res.Scenario)
	for _, f := range res.Failures() {
		fmt.Printf("     %s\n", f)
	}
	if code == 0 {
		code = 1
	}
	return code
}

// simDur renders elapsed sim microseconds compactly.
func simDur(us int64) string {
	switch {
	case us >= 60_000_000:
		return fmt.Sprintf("%dm%ds", us/60_000_000, us%60_000_000/1_000_000)
	case us >= 1_000_000:
		return fmt.Sprintf("%ds", us/1_000_000)
	default:
		return fmt.Sprintf("%dms", us/1_000)
	}
}

func cmdValidate(args []string) int {
	files, err := expand(args)
	if err != nil || len(files) == 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
		} else {
			usage()
		}
		return 2
	}
	for _, path := range files {
		s, src, err := load(path)
		if err == nil {
			err = scenario.Validate(s)
		}
		if err == nil && s.IsTemplate() {
			// A template is only as valid as its cells.
			_, err = scenario.ExpandMatrix(s.Name, src)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		fmt.Printf("OK   %s\n", path)
	}
	return 0
}

func cmdList(args []string) int {
	files, err := expand(args)
	if err != nil || len(files) == 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
		} else {
			usage()
		}
		return 2
	}
	for _, path := range files {
		s, _, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		kind := "scenario"
		if s.IsTemplate() {
			cells := 1
			var axes []string
			for _, ax := range s.Axes {
				cells *= len(ax.Values)
				axes = append(axes, fmt.Sprintf("%s(%d)", ax.Name, len(ax.Values)))
			}
			kind = fmt.Sprintf("template %s = %d cells", strings.Join(axes, " x "), cells)
		}
		doc := ""
		if len(s.Doc) > 0 {
			doc = "  " + s.Doc[0]
		}
		fmt.Printf("%-28s %s%s\n", s.Name, kind, doc)
	}
	return 0
}

func cmdMatrix(args []string) int {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	outDir := fs.String("out", "", "write expanded instance .scn files to this directory")
	doRun := fs.Bool("run", false, "execute every instance")
	jsonOut := fs.Bool("json", false, "with -run, print each result's JSON dump")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		usage()
		return 2
	}
	path := fs.Arg(0)
	s, src, err := load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codascn:", err)
		return 2
	}
	insts, err := scenario.ExpandMatrix(s.Name, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codascn:", err)
		return 2
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		for _, inst := range insts {
			p := filepath.Join(*outDir, inst.Name+".scn")
			if err := os.WriteFile(p, inst.Src, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "codascn:", err)
				return 2
			}
		}
		fmt.Printf("wrote %d instances to %s\n", len(insts), *outDir)
	}
	code := 0
	for _, inst := range insts {
		if !*doRun {
			fmt.Println(inst.Name)
			continue
		}
		res, err := scenario.Run(inst.Scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codascn:", err)
			return 2
		}
		if *jsonOut {
			_, _ = os.Stdout.Write(res.DumpJSON())
		}
		code = report(res, code)
	}
	return code
}
