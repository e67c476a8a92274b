// Command codalint runs the repository's custom static-analysis suite,
// six analyzers: simclock (virtual-clock discipline), lockguard (mutex
// discipline), errwrap (error-wrapping discipline), testhygiene
// (test-helper and real-sleep checks), obsname (metric naming), and
// lockhold (mutexes held across blocking calls, through any chain of
// static calls on the shared effect engine). See internal/lint for the
// analyzers and README.md for the allowlist and suppression policy.
//
// Flags: -json (machine-readable findings), -ignores (suppression
// audit — re-runs the suite and flags stale directives), -deadline DUR
// (wall-clock budget for CI).
//
// Exit status: 0 clean, 1 findings, 2 usage or load error, 3 deadline
// exceeded, 4 stale or malformed suppressions found by -ignores.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
