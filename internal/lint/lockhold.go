package lint

import "fmt"

// Lockhold reports mutexes held across transitively-blocking calls: a
// critical section that spans a simtime wait, an rpc2/sftp round-trip, a
// WAL fsync, or a bare channel operation serializes every other user of
// that lock behind the slowest I/O in the system — the exact shape the
// server's lock-wait histogram can only observe after the fact, caught
// here at lint time.
//
// The analyzer is a filter over the park sites of the critical-section
// walk (lockwalk.go): a finding for every channel operation and every
// call the interprocedural engine marks as blocking — whether the callee
// blocks directly or five static calls (and any number of package
// boundaries) away — reached with a lock must-held. What "held" means —
// mutex naming, helper-opened regions, deferred unlocks, the
// branch-merge rule and its may-hold limit — is defined there, once, for
// lockorder too.
type Lockhold struct {
	eng *Engine
}

// NewLockhold returns the analyzer; the engine is bound by Run.
func NewLockhold() *Lockhold { return &Lockhold{} }

// Name implements Analyzer.
func (*Lockhold) Name() string { return "lockhold" }

// Doc implements Analyzer.
func (*Lockhold) Doc() string {
	return "mutexes must not be held across blocking calls (simtime waits, rpc2/sftp, WAL fsync, channel ops)"
}

// Bind implements interprocAnalyzer.
func (l *Lockhold) Bind(e *Engine) { l.eng = e }

// Analyze implements Analyzer: one finding per held lock per park site.
func (l *Lockhold) Analyze(pkg *Package) []Finding {
	if l.eng == nil {
		l.Bind(NewEngine([]*Package{pkg}))
	}
	var out []Finding
	for _, n := range l.eng.PkgNodes(pkg) {
		for _, p := range l.eng.lockFacts(n).parks {
			for _, h := range p.held {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(p.pos),
					Analyzer: l.Name(),
					Message: fmt.Sprintf("%s (acquired line %d) held across %s in %s; release before blocking or move the I/O out of the critical section",
						h.text, pkg.Fset.Position(h.pos).Line, p.what, n.Name),
				})
			}
		}
	}
	return out
}
