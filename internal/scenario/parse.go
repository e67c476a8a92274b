package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse reads a scenario (or template) from src. name labels errors and
// becomes the scenario name when the file carries no scenario directive.
// Malformed input returns a wrapped error naming the offending line;
// Parse never panics (FuzzParseScenario pins that contract, the same one
// wire.Decode honours for corrupt packets).
func Parse(name string, src []byte) (*Scenario, error) {
	s := &Scenario{Name: name}
	lines := strings.Split(string(src), "\n")
	// A file carrying matrix directives is a template: its body may use
	// ${axis} references in positions that only parse once substituted
	// (integer counts, durations), so only the header is parsed here.
	// Each expanded instance goes through the full parser. Anywhere else
	// a ${...} token is a variable nobody will expand.
	template := false
	for _, raw := range lines {
		if firstWord(raw) == "matrix" {
			template = true
			break
		}
	}
	for i, raw := range lines {
		if template {
			switch firstWord(raw) {
			case "scenario", "doc", "seed", "matrix":
			default:
				continue // body line; parsed per expanded instance
			}
		}
		lineNo := i + 1
		toks, err := tokenize(raw)
		if err != nil {
			return nil, lineErr(name, lineNo, err)
		}
		if len(toks) == 0 {
			continue
		}
		c := &cursor{toks: toks, i: 1}
		directive := toks[0].text
		if toks[0].quoted {
			c.failf("directive must not be quoted")
		}
		if v := unexpanded(toks); v != "" && !template {
			c.failf("unexpanded variable %s (expand the template with the matrix command first)", v)
		}

		step := false
		switch directive {
		case "scenario":
			s.Name = c.word("name")
		case "doc":
			if c.done() {
				c.failf("missing doc text")
			}
			var parts []string
			for !c.done() {
				parts = append(parts, c.any("doc text"))
			}
			s.Doc = append(s.Doc, strings.Join(parts, " "))
		case "seed":
			s.Seed = c.integer("seed")
		case "matrix":
			ax := parseAxis(c)
			for _, prev := range s.Axes {
				if prev.Name == ax.Name {
					c.failf("duplicate axis %q", ax.Name)
				}
			}
			s.Axes = append(s.Axes, ax)
		case "group":
			g := GroupDecl{Line: lineNo, Name: c.word("group name")}
			c.keyword("members")
			g.Members = int(c.integer("member count"))
			for !c.done() {
				if k := c.any("group option"); k == "journal" {
					g.Journal = true
				} else {
					c.failf("unknown group option %q", k)
				}
			}
			s.Groups = append(s.Groups, g)
		case "volume":
			v := VolumeDecl{Line: lineNo, Name: c.word("volume name")}
			if c.opt("group") {
				v.Group = c.word("group name")
			}
			s.Volumes = append(s.Volumes, v)
		case "seed-file", "seed-dir":
			d := SeedDecl{Line: lineNo, Volume: c.word("volume"), Path: c.any("path"), Dir: directive == "seed-dir"}
			if !d.Dir {
				d.Data = c.content()
			}
			s.Seeds = append(s.Seeds, d)
		case "trace":
			t := TraceDecl{Line: lineNo, Name: c.word("trace name")}
			c.keyword("segment")
			t.Segment = c.word("segment name")
			for !c.done() {
				switch k := c.any("trace option"); k {
				case "scale":
					t.ScalePct = int(c.size("scale percent"))
				case "lambda":
					t.Lambda = c.duration("lambda")
				case "opcost":
					t.OpCost = c.duration("opcost")
				default:
					c.failf("unknown trace option %q", k)
				}
			}
			s.Traces = append(s.Traces, t)
		case "client":
			cl := ClientDecl{Line: lineNo, Name: c.word("client name")}
			c.keyword("id")
			id := c.integer("client id")
			if id <= 0 || id > 1<<31 {
				c.failf("client id %d out of range", id)
			}
			cl.ID = uint32(id)
			for !c.done() {
				switch k := c.any("client option"); k {
				case "group":
					cl.Group = c.word("group name")
				case "cache":
					cl.CacheBytes = c.size("cache bytes")
				case "aging":
					cl.Aging = c.duration("aging window")
				case "trickle":
					cl.Trickle = c.duration("trickle interval")
				case "chunk-seconds":
					cl.ChunkSeconds = int(c.size("chunk seconds"))
				case "pin-write-disconnected":
					cl.PinWD = true
				default:
					c.failf("unknown client option %q", k)
				}
			}
			s.Clients = append(s.Clients, cl)
		case "mount":
			s.Mounts = append(s.Mounts, MountDecl{Line: lineNo, Client: c.word("client"), Volume: c.word("volume")})
		case "assert":
			s.Asserts = append(s.Asserts, parseAssert(c, lineNo))
		default:
			s.Steps = append(s.Steps, parseStep(directive, c, lineNo))
			step = true
		}
		if !step && directive != "assert" && len(s.Steps) > 0 {
			c.failf("topology directive %q after the first schedule step", directive)
		}
		if !c.done() {
			c.failf("trailing arguments after %q directive", directive)
		}
		if c.err != nil {
			return nil, lineErr(name, lineNo, c.err)
		}
	}
	return s, nil
}

// parseStep parses one schedule directive.
func parseStep(directive string, c *cursor, lineNo int) Step {
	st := Step{Line: lineNo, Kind: StepKind(directive)}
	switch st.Kind {
	case StepAt, StepAfter:
		st.Dur = c.duration("offset")
	case StepWrite:
		st.Client, st.Path, st.Data, st.HasData = c.word("client"), c.any("path"), c.content(), true
	case StepMkdir, StepRemove:
		st.Client, st.Path = c.word("client"), c.any("path")
	case StepRead:
		st.Client, st.Path = c.word("client"), c.any("path")
		if c.opt("expect") {
			st.Expect, st.HasData = c.content(), true
		}
	case StepDisconnect, StepWriteDisc, StepHoardWalk, StepReintegrate:
		st.Client = c.word("client")
	case StepConnect:
		st.Client = c.word("client")
		if c.opt("bw") {
			st.N = c.size("bandwidth")
		}
	case StepHoard:
		st.Client, st.Path = c.word("client"), c.any("path")
		c.keyword("priority")
		st.N = c.integer("priority")
		st.Flag = c.opt("children")
	case StepLink:
		st.Client, st.Target = c.word("client"), c.word("server or group")
		switch mode := c.word("link mode"); mode {
		case "up":
			st.Mode = LinkUp
		case "down":
			st.Mode = LinkDown
		case "profile":
			st.Mode, st.Profile = LinkProfile, c.word("profile name")
		case "bw":
			st.Mode, st.N = LinkParams, c.size("bandwidth")
			if c.opt("latency") {
				st.Latency = c.duration("latency")
			}
		default:
			c.failf("unknown link mode %q (want up, down, profile, bw)", mode)
		}
	case StepFlap:
		st.Client, st.Target, st.N = c.word("client"), c.word("server or group"), c.size("flap count")
		c.keyword("period")
		st.Dur = c.duration("period")
		if st.N > 10_000 {
			c.failf("flap count %d out of range [0, 10000]", st.N)
		}
	case StepKill, StepConverge:
		st.Target = c.word("target")
	case StepCrashArm:
		st.Target, st.N = c.word("server"), c.integer("write count")
		if st.N < 1 {
			c.failf("crash-arm write count must be >= 1, got %d", st.N)
		}
	case StepRestart:
		st.Target = c.word("server")
		if c.opt("from") {
			st.From = c.word("peer server")
		}
	case StepDrain:
		st.Client, st.Dur = c.word("client"), 30*time.Minute
		if c.opt("within") {
			st.Dur = c.duration("deadline")
		}
	case StepReplay:
		st.Client, st.Target = c.word("client"), c.word("trace name")
		if c.opt("warm") {
			st.Dur = c.duration("warm duration")
		}
	default:
		c.failf("unknown directive %q", directive)
	}
	return st
}

// parseAssert parses the tail of an assert directive.
func parseAssert(c *cursor, lineNo int) Assert {
	kind := c.word("assertion kind")
	a := Assert{Line: lineNo, Kind: AssertKind(kind)}
	switch a.Kind {
	case AssertIdentical:
		a.Target = c.word("group")
	case AssertFile:
		a.Target, a.Volume, a.Path, a.Data = c.word("server or group"), c.word("volume"), c.any("path"), c.content()
	case AssertClientFile:
		a.Client, a.Path, a.Data = c.word("client"), c.any("path"), c.content()
	case AssertCMLEmpty:
		a.Client = c.word("client")
	case AssertStamp:
		a.Target, a.Volume = c.word("group"), c.word("volume")
		a.Op, a.N = c.bound()
	case AssertMetric:
		a.Metric = c.word("metric name")
		for {
			t, ok := c.peek()
			if !ok || !t.quoted && isOp(t.text) {
				break
			}
			kv := c.any("label")
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				c.failf("label %q is not key=value", kv)
			}
			a.Labels = append(a.Labels, [2]string{k, v})
		}
		if c.done() {
			c.failf("metric assertion needs a bound (== != <= >= < >)")
		}
		a.Op, a.N = c.bound()
	case AssertFailovers:
		a.Client = c.word("client")
		a.Op, a.N = c.bound()
	case AssertElapsed:
		a.Op, a.Dur = c.op(), c.duration("elapsed bound")
	case AssertState:
		a.Client, a.State = c.word("client"), c.word("state")
	case AssertSpans:
		a.Metric, a.State = c.word("span name"), c.word("spans mode (count or dur)")
		switch a.State {
		case "count":
			a.Op, a.N = c.bound()
		case "dur":
			a.Op, a.Dur = c.op(), c.duration("duration bound")
		default:
			c.failf("spans mode %q is not count or dur", a.State)
		}
	default:
		c.failf("unknown assertion kind %q", kind)
	}
	return a
}

// parseAxis parses a matrix directive: a variable plus explicit values,
// where a single token of the form a..b expands to the integer range.
func parseAxis(c *cursor) Axis {
	ax := Axis{Name: c.word("axis name")}
	if strings.ContainsAny(ax.Name, "${}") {
		c.failf("bad axis name %q", ax.Name)
	}
	for !c.done() {
		v := c.any("axis value")
		lo, hi, ok := cutRange(v)
		switch {
		case !ok:
			ax.Values = append(ax.Values, v)
		case hi < lo || uint64(hi-lo) >= 1000: // unsigned: hi-lo may overflow int64
			c.failf("range %s: want an ascending range of max 1000 values", v)
		default:
			for n := lo; n <= hi; n++ {
				ax.Values = append(ax.Values, strconv.FormatInt(n, 10))
			}
		}
	}
	if len(ax.Values) == 0 {
		c.failf("axis %s has no values", ax.Name)
	}
	return ax
}

// cutRange parses "a..b" into its integer bounds.
func cutRange(s string) (lo, hi int64, ok bool) {
	a, b, found := strings.Cut(s, "..")
	if !found {
		return 0, 0, false
	}
	lo, errA := strconv.ParseInt(a, 10, 64)
	hi, errB := strconv.ParseInt(b, 10, 64)
	if errA != nil || errB != nil {
		return 0, 0, false
	}
	return lo, hi, true
}

// unexpanded returns the first ${var} reference in toks, or "".
func unexpanded(toks []token) string {
	for _, t := range toks {
		if i := strings.Index(t.text, "${"); i >= 0 {
			if j := strings.Index(t.text[i:], "}"); j >= 0 {
				return t.text[i : i+j+1]
			}
			return t.text[i:]
		}
	}
	return ""
}

// isOp reports whether tok is a comparison operator.
func isOp(tok string) bool {
	switch tok {
	case "==", "!=", "<=", ">=", "<", ">":
		return true
	}
	return false
}

// lineErr wraps err with the file and line it came from.
func lineErr(name string, line int, err error) error {
	return fmt.Errorf("scenario %s:%d: %w", name, line, err)
}

// token is one whitespace-delimited word, possibly a quoted string.
type token struct {
	text   string
	quoted bool
}

// tokenize splits one line into tokens. '#' outside quotes starts a
// comment; quoted strings use Go syntax (strconv.Unquote).
func tokenize(line string) ([]token, error) {
	var out []token
	i := 0
	for i < len(line) {
		switch ch := line[i]; {
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '#':
			return out, nil
		case ch == '"':
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quoted string")
			}
			text, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted string %s: %w", line[i:j+1], err)
			}
			out = append(out, token{text: text, quoted: true})
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' && line[j] != '#' {
				j++
			}
			out = append(out, token{text: line[i:j]})
			i = j
		}
	}
	return out, nil
}

// cursor walks one line's tokens with typed reads. The first failure
// sticks, the same rule as wire.Reader: once a read fails, every later
// read returns its zero value, done reports true, and err keeps that
// first error. A directive therefore reads its arguments straight
// through, in order, and Parse checks err once per line.
type cursor struct {
	toks []token
	i    int
	err  error
}

// done reports whether the line is used up or a read has failed.
func (c *cursor) done() bool { return c.err != nil || c.i >= len(c.toks) }

// failf records a failure unless an earlier one already stuck.
func (c *cursor) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// peek returns the next token without consuming it.
func (c *cursor) peek() (token, bool) {
	if c.done() {
		return token{}, false
	}
	return c.toks[c.i], true
}

// next consumes a token; at the end of the line it fails with
// "missing <what>".
func (c *cursor) next(what string) token {
	t, ok := c.peek()
	if ok {
		c.i++
	} else {
		c.failf("missing %s", what)
	}
	return t
}

// any consumes a token, quoted or not.
func (c *cursor) any(what string) string { return c.next(what).text }

// word consumes an unquoted token.
func (c *cursor) word(what string) string {
	t := c.next(what)
	if t.quoted {
		c.failf("%s must not be quoted", what)
		return ""
	}
	return t.text
}

// keyword consumes the expected literal token.
func (c *cursor) keyword(kw string) {
	if t := c.next(strconv.Quote(kw)); t.quoted || t.text != kw {
		c.failf("expected %q, got %q", kw, t.text)
	}
}

// opt reports whether the line goes on; if it does, the next token must
// be kw, the keyword that introduces an optional tail.
func (c *cursor) opt(kw string) bool {
	if c.done() {
		return false
	}
	c.keyword(kw)
	return true
}

// integer consumes an int64.
func (c *cursor) integer(what string) int64 {
	n, err := strconv.ParseInt(c.word(what), 10, 64)
	if err != nil {
		c.failf("%s: %w", what, err)
		return 0
	}
	return n
}

// size consumes a non-negative int64: a byte count, a rate or a
// repetition count.
func (c *cursor) size(what string) int64 {
	n := c.integer(what)
	if n < 0 {
		c.failf("%s must not be negative", what)
		return 0
	}
	return n
}

// duration consumes a non-negative time.ParseDuration value.
func (c *cursor) duration(what string) time.Duration {
	d, err := time.ParseDuration(c.word(what))
	switch {
	case err != nil:
		c.failf("%s: %w", what, err)
	case d < 0:
		c.failf("%s must not be negative", what)
	default:
		return d
	}
	return 0
}

// content consumes file content: either a quoted string or `zeros N`.
func (c *cursor) content() []byte {
	t := c.next("content (quoted string or zeros N)")
	switch {
	case t.quoted:
		return []byte(t.text)
	case t.text != "zeros":
		c.failf("content must be a quoted string or zeros N, got %q", t.text)
		return nil
	}
	n := c.size("zeros size")
	if n > 64<<20 {
		c.failf("zeros size %d out of range [0, %d]", n, 64<<20)
	}
	if c.err != nil {
		return nil
	}
	return make([]byte, n)
}

// op consumes a comparison operator.
func (c *cursor) op() string {
	op := c.word("comparison")
	if !isOp(op) {
		c.failf("%q is not a comparison operator (want == != <= >= < >)", op)
		return ""
	}
	return op
}

// bound consumes a comparison operator and an integer.
func (c *cursor) bound() (string, int64) { return c.op(), c.integer("bound") }
