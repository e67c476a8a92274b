package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Exit codes for the codalint CLI.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding
	ExitUsage    = 2 // bad invocation or load failure
	ExitDeadline = 3 // analysis exceeded the -deadline wall-clock budget
	ExitStale    = 4 // -ignores audit found stale or malformed suppressions
)

// cliOptions holds the parsed command-line flags.
type cliOptions struct {
	jsonOut  bool          // -json: machine-readable findings
	ignores  bool          // -ignores: audit suppressions instead of linting
	deadline time.Duration // -deadline: wall-clock budget; 0 = none
}

// parseArgs splits flags from package arguments. ok is false when the
// invocation is malformed (a usage message has been printed).
func parseArgs(args []string, stderr io.Writer) (opts cliOptions, rest []string, ok bool) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-h" || a == "--help" || a == "-help":
			usage(stderr)
			return opts, nil, false
		case a == "-json":
			opts.jsonOut = true
		case a == "-ignores":
			opts.ignores = true
		case a == "-deadline" || strings.HasPrefix(a, "-deadline="):
			var val string
			if eq := strings.IndexByte(a, '='); eq >= 0 {
				val = a[eq+1:]
			} else {
				if i+1 >= len(args) {
					fmt.Fprintln(stderr, "codalint: -deadline needs a duration (e.g. -deadline 60s)")
					return opts, nil, false
				}
				i++
				val = args[i]
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				fmt.Fprintf(stderr, "codalint: bad -deadline %q: want a positive duration\n", val)
				return opts, nil, false
			}
			opts.deadline = d
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "codalint: unknown flag %s\n", a)
			usage(stderr)
			return opts, nil, false
		default:
			rest = append(rest, a)
		}
	}
	return opts, rest, true
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Main is the codalint entry point, factored out of cmd/codalint so
// tests can drive it in-process. Accepted arguments: a single `./...`
// (lint the whole module around the working directory) or one or more
// package directories inside a module, optionally preceded by flags.
func Main(args []string, stdout, stderr io.Writer) int {
	opts, rest, ok := parseArgs(args, stderr)
	if !ok {
		return ExitUsage
	}
	if len(rest) == 0 {
		usage(stderr)
		return ExitUsage
	}

	// The deadline is a wall-clock budget on the tool itself (a CI
	// regression fence), so the real clock is the right one here.
	//codalint:ignore simclock the lint tool's own -deadline budget is real wall-clock, not simulated time
	start := time.Now()

	var pkgs []*Package
	if len(rest) == 1 && (rest[0] == "./..." || rest[0] == "...") {
		mod, err := LoadModule(".")
		if err != nil {
			fmt.Fprintf(stderr, "codalint: %v\n", err)
			return ExitUsage
		}
		pkgs = mod.Packages
	} else {
		// Explicit directories: load each one's surrounding module once
		// and select the packages whose directory matches.
		mods := make(map[string]*Module)
		for _, arg := range rest {
			abs, err := filepath.Abs(arg)
			if err != nil {
				fmt.Fprintf(stderr, "codalint: %v\n", err)
				return ExitUsage
			}
			root, err := FindModuleRoot(abs)
			if err != nil {
				fmt.Fprintf(stderr, "codalint: %s: %v\n", arg, err)
				return ExitUsage
			}
			mod, ok := mods[root]
			if !ok {
				mod, err = LoadModule(root)
				if err != nil {
					fmt.Fprintf(stderr, "codalint: %v\n", err)
					return ExitUsage
				}
				mods[root] = mod
			}
			found := false
			for _, p := range mod.Packages {
				if p.Dir == abs {
					pkgs = append(pkgs, p)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "codalint: %s: no Go package\n", arg)
				return ExitUsage
			}
		}
	}

	if opts.ignores {
		return listIgnores(pkgs, Analyzers(), stdout, stderr)
	}

	findings := Run(pkgs, Analyzers())
	if opts.jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "codalint: %v\n", err)
			return ExitUsage
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	code := ExitClean
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "codalint: %d finding(s)\n", len(findings))
		code = ExitFindings
	}
	if opts.deadline > 0 {
		//codalint:ignore simclock the lint tool's own -deadline budget is real wall-clock, not simulated time
		elapsed := time.Since(start)
		fmt.Fprintf(stderr, "codalint: wall-clock %dms (deadline %s)\n",
			elapsed.Milliseconds(), opts.deadline)
		if elapsed > opts.deadline {
			fmt.Fprintf(stderr, "codalint: analysis exceeded the %s deadline\n", opts.deadline)
			return ExitDeadline
		}
	}
	return code
}

// listIgnores prints every //codalint:ignore directive in pkgs — the
// suppression audit. Each line is `file:line: [analyzer] reason`, so the
// complete debt of intentional exceptions is reviewable in one listing.
// The audit runs the full analyzer suite first so it knows which
// directives still suppress something: a directive that matches no
// finding is STALE (dead weight that would silently swallow the next
// real finding on that line) and fails the audit with ExitStale, as
// does a malformed directive.
func listIgnores(pkgs []*Package, analyzers []Analyzer, stdout, stderr io.Writer) int {
	_, sups, malformed := run(pkgs, analyzers)

	type entry struct {
		file     string
		line     int
		analyzer string
		reason   string
		stale    bool
	}
	var all []entry
	stale := 0
	for _, s := range sups {
		e := entry{s.file, s.line, s.analyzer, s.reason, !s.used}
		if e.stale {
			stale++
		}
		all = append(all, e)
	}
	// A malformed directive is still a suppression attempt; surface it
	// in the audit rather than hiding it.
	for _, f := range malformed {
		all = append(all, entry{f.Pos.Filename, f.Pos.Line, "directive", "MALFORMED: missing analyzer or reason", false})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].file != all[j].file {
			return all[i].file < all[j].file
		}
		return all[i].line < all[j].line
	})
	for _, e := range all {
		mark := ""
		if e.stale {
			mark = "  STALE: suppresses nothing — remove the directive or restore the reason it existed"
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s%s\n", e.file, e.line, e.analyzer, e.reason, mark)
	}
	fmt.Fprintf(stdout, "%d suppression(s), %d stale, %d malformed\n", len(all), stale, len(malformed))
	if stale > 0 || len(malformed) > 0 {
		fmt.Fprintf(stderr, "codalint: suppression audit failed: %d stale, %d malformed\n", stale, len(malformed))
		return ExitStale
	}
	return ExitClean
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: codalint [flags] ./...        lint every package in the module")
	fmt.Fprintln(w, "       codalint [flags] DIR [DIR...] lint specific package directories")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "flags:")
	fmt.Fprintln(w, "  -json          emit findings as a JSON array ({file,line,col,analyzer,message})")
	fmt.Fprintln(w, "  -ignores       audit //codalint:ignore suppressions: list all, fail (exit 4) on stale or malformed ones")
	fmt.Fprintln(w, "  -deadline DUR  fail with exit 3 if analysis wall-clock exceeds DUR (e.g. 60s)")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "analyzers:")
	for _, a := range Analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name(), a.Doc())
	}
	fmt.Fprintln(w, "")
	fmt.Fprintf(w, "suppress with: %s <analyzer> <reason>\n", IgnoreDirective)
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "exit status: 0 clean, 1 findings, 2 usage or load error, 3 deadline exceeded, 4 stale suppressions")
}
