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
	inSchedule := false
	lines := strings.Split(string(src), "\n")
	// A file carrying matrix directives is a template: its body may use
	// ${axis} references in positions that only parse once substituted
	// (integer counts, durations), so only the header is parsed here.
	// Each expanded instance goes through the full parser.
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
			return nil, lineErr(name, lineNo, fmt.Errorf("directive must not be quoted"))
		}

		isTopology := true
		switch directive {
		case "scenario":
			n, err := c.word("name")
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Name = n
		case "doc":
			if c.done() {
				return nil, lineErr(name, lineNo, fmt.Errorf("missing doc text"))
			}
			var parts []string
			for !c.done() {
				parts = append(parts, c.must())
			}
			s.Doc = append(s.Doc, strings.Join(parts, " "))
		case "seed":
			v, err := c.integer("seed")
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Seed = v
		case "matrix":
			ax, err := parseAxis(c)
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Axes = append(s.Axes, ax)
		case "group":
			g := GroupDecl{Line: lineNo}
			if g.Name, err = c.word("group name"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if err = c.keyword("members"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			n, err := c.integer("member count")
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			g.Members = int(n)
			for !c.done() {
				switch k := c.must(); k {
				case "journal":
					g.Journal = true
				default:
					return nil, lineErr(name, lineNo, fmt.Errorf("unknown group option %q", k))
				}
			}
			s.Groups = append(s.Groups, g)
		case "volume":
			v := VolumeDecl{Line: lineNo}
			if v.Name, err = c.word("volume name"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if !c.done() {
				if err = c.keyword("group"); err != nil {
					return nil, lineErr(name, lineNo, err)
				}
				if v.Group, err = c.word("group name"); err != nil {
					return nil, lineErr(name, lineNo, err)
				}
			}
			s.Volumes = append(s.Volumes, v)
		case "seed-file":
			d := SeedDecl{Line: lineNo}
			if d.Volume, err = c.word("volume"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if d.Path, err = c.any("path"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if d.Data, err = c.content(); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Seeds = append(s.Seeds, d)
		case "seed-dir":
			d := SeedDecl{Line: lineNo, Dir: true}
			if d.Volume, err = c.word("volume"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if d.Path, err = c.any("path"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Seeds = append(s.Seeds, d)
		case "trace":
			t := TraceDecl{Line: lineNo}
			if t.Name, err = c.word("trace name"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if err = c.keyword("segment"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if t.Segment, err = c.word("segment name"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			for !c.done() {
				switch k := c.must(); k {
				case "scale":
					n, err := c.integer("scale percent")
					if err != nil {
						return nil, lineErr(name, lineNo, err)
					}
					t.ScalePct = int(n)
				case "lambda":
					if t.Lambda, err = c.duration("lambda"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				case "opcost":
					if t.OpCost, err = c.duration("opcost"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				default:
					return nil, lineErr(name, lineNo, fmt.Errorf("unknown trace option %q", k))
				}
			}
			s.Traces = append(s.Traces, t)
		case "client":
			cl := ClientDecl{Line: lineNo}
			if cl.Name, err = c.word("client name"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if err = c.keyword("id"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			id, err := c.integer("client id")
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if id <= 0 || id > 1<<31 {
				return nil, lineErr(name, lineNo, fmt.Errorf("client id %d out of range", id))
			}
			cl.ID = uint32(id)
			for !c.done() {
				switch k := c.must(); k {
				case "group":
					if cl.Group, err = c.word("group name"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				case "cache":
					if cl.CacheBytes, err = c.integer("cache bytes"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				case "aging":
					if cl.Aging, err = c.duration("aging window"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				case "trickle":
					if cl.Trickle, err = c.duration("trickle interval"); err != nil {
						return nil, lineErr(name, lineNo, err)
					}
				case "chunk-seconds":
					n, err := c.integer("chunk seconds")
					if err != nil {
						return nil, lineErr(name, lineNo, err)
					}
					cl.ChunkSeconds = int(n)
				case "pin-write-disconnected":
					cl.PinWD = true
				default:
					return nil, lineErr(name, lineNo, fmt.Errorf("unknown client option %q", k))
				}
			}
			s.Clients = append(s.Clients, cl)
		case "mount":
			m := MountDecl{Line: lineNo}
			if m.Client, err = c.word("client"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			if m.Volume, err = c.word("volume"); err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Mounts = append(s.Mounts, m)
		case "assert":
			a, err := parseAssert(c, lineNo)
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Asserts = append(s.Asserts, a)
		default:
			isTopology = false
			st, err := parseStep(directive, c, lineNo)
			if err != nil {
				return nil, lineErr(name, lineNo, err)
			}
			s.Steps = append(s.Steps, st)
			inSchedule = true
		}
		if isTopology && inSchedule && directive != "assert" {
			return nil, lineErr(name, lineNo, fmt.Errorf(
				"topology directive %q after the first schedule step", directive))
		}
		if isTopology && !c.done() {
			return nil, lineErr(name, lineNo, fmt.Errorf("trailing arguments after %q directive", directive))
		}
	}
	return s, nil
}

// parseStep parses one schedule directive.
func parseStep(directive string, c *cursor, lineNo int) (Step, error) {
	st := Step{Line: lineNo, Kind: StepKind(directive)}
	var err error
	switch st.Kind {
	case StepAt, StepAfter:
		if st.Dur, err = c.duration("offset"); err != nil {
			return st, err
		}
	case StepWrite:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Path, err = c.any("path"); err != nil {
			return st, err
		}
		if st.Data, err = c.content(); err != nil {
			return st, err
		}
		st.HasData = true
	case StepMkdir, StepRemove:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Path, err = c.any("path"); err != nil {
			return st, err
		}
	case StepRead:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Path, err = c.any("path"); err != nil {
			return st, err
		}
		if !c.done() {
			if err = c.keyword("expect"); err != nil {
				return st, err
			}
			if st.Expect, err = c.content(); err != nil {
				return st, err
			}
			st.HasData = true
		}
	case StepDisconnect, StepWriteDisc, StepHoardWalk, StepReintegrate:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
	case StepConnect:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if !c.done() {
			if err = c.keyword("bw"); err != nil {
				return st, err
			}
			if st.N, err = c.integer("bandwidth"); err != nil {
				return st, err
			}
		}
	case StepHoard:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Path, err = c.any("path"); err != nil {
			return st, err
		}
		if err = c.keyword("priority"); err != nil {
			return st, err
		}
		if st.N, err = c.integer("priority"); err != nil {
			return st, err
		}
		if !c.done() {
			if err = c.keyword("children"); err != nil {
				return st, err
			}
			st.Flag = true
		}
	case StepLink:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Target, err = c.word("server or group"); err != nil {
			return st, err
		}
		mode, err := c.word("link mode")
		if err != nil {
			return st, err
		}
		switch mode {
		case "up":
			st.Mode = LinkUp
		case "down":
			st.Mode = LinkDown
		case "profile":
			st.Mode = LinkProfile
			if st.Profile, err = c.word("profile name"); err != nil {
				return st, err
			}
		case "bw":
			st.Mode = LinkParams
			if st.N, err = c.integer("bandwidth"); err != nil {
				return st, err
			}
			if !c.done() {
				if err = c.keyword("latency"); err != nil {
					return st, err
				}
				if st.Latency, err = c.duration("latency"); err != nil {
					return st, err
				}
			}
		default:
			return st, fmt.Errorf("unknown link mode %q (want up, down, profile, bw)", mode)
		}
	case StepFlap:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Target, err = c.word("server or group"); err != nil {
			return st, err
		}
		if st.N, err = c.integer("flap count"); err != nil {
			return st, err
		}
		if err = c.keyword("period"); err != nil {
			return st, err
		}
		if st.Dur, err = c.duration("period"); err != nil {
			return st, err
		}
		if st.N < 0 || st.N > 10_000 {
			return st, fmt.Errorf("flap count %d out of range [0, 10000]", st.N)
		}
	case StepKill, StepConverge:
		if st.Target, err = c.word("target"); err != nil {
			return st, err
		}
	case StepCrashArm:
		if st.Target, err = c.word("server"); err != nil {
			return st, err
		}
		if st.N, err = c.integer("write count"); err != nil {
			return st, err
		}
		if st.N < 1 {
			return st, fmt.Errorf("crash-arm write count must be >= 1, got %d", st.N)
		}
	case StepRestart:
		if st.Target, err = c.word("server"); err != nil {
			return st, err
		}
		if !c.done() {
			if err = c.keyword("from"); err != nil {
				return st, err
			}
			if st.From, err = c.word("peer server"); err != nil {
				return st, err
			}
		}
	case StepDrain:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		st.Dur = 30 * time.Minute
		if !c.done() {
			if err = c.keyword("within"); err != nil {
				return st, err
			}
			if st.Dur, err = c.duration("deadline"); err != nil {
				return st, err
			}
		}
	case StepReplay:
		if st.Client, err = c.word("client"); err != nil {
			return st, err
		}
		if st.Target, err = c.word("trace name"); err != nil {
			return st, err
		}
		if !c.done() {
			if err = c.keyword("warm"); err != nil {
				return st, err
			}
			if st.Dur, err = c.duration("warm duration"); err != nil {
				return st, err
			}
		}
	default:
		return st, fmt.Errorf("unknown directive %q", directive)
	}
	if !c.done() {
		return st, fmt.Errorf("trailing arguments after %q step", directive)
	}
	return st, nil
}

// parseAssert parses the tail of an assert directive.
func parseAssert(c *cursor, lineNo int) (Assert, error) {
	a := Assert{Line: lineNo}
	kind, err := c.word("assertion kind")
	if err != nil {
		return a, err
	}
	a.Kind = AssertKind(kind)
	switch a.Kind {
	case AssertIdentical:
		if a.Target, err = c.word("group"); err != nil {
			return a, err
		}
	case AssertFile:
		if a.Target, err = c.word("server or group"); err != nil {
			return a, err
		}
		if a.Volume, err = c.word("volume"); err != nil {
			return a, err
		}
		if a.Path, err = c.any("path"); err != nil {
			return a, err
		}
		if a.Data, err = c.content(); err != nil {
			return a, err
		}
	case AssertClientFile:
		if a.Client, err = c.word("client"); err != nil {
			return a, err
		}
		if a.Path, err = c.any("path"); err != nil {
			return a, err
		}
		if a.Data, err = c.content(); err != nil {
			return a, err
		}
	case AssertCMLEmpty:
		if a.Client, err = c.word("client"); err != nil {
			return a, err
		}
	case AssertStamp:
		if a.Target, err = c.word("group"); err != nil {
			return a, err
		}
		if a.Volume, err = c.word("volume"); err != nil {
			return a, err
		}
		if a.Op, a.N, err = c.bound(); err != nil {
			return a, err
		}
	case AssertMetric:
		if a.Metric, err = c.word("metric name"); err != nil {
			return a, err
		}
		for {
			tok, quoted, ok := c.peek()
			if !ok {
				return a, fmt.Errorf("metric assertion needs a bound (== != <= >= < >)")
			}
			if !quoted && isOp(tok) {
				break
			}
			kv, err := c.any("label")
			if err != nil {
				return a, err
			}
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				return a, fmt.Errorf("label %q is not key=value", kv)
			}
			a.Labels = append(a.Labels, [2]string{k, v})
		}
		if a.Op, a.N, err = c.bound(); err != nil {
			return a, err
		}
	case AssertFailovers:
		if a.Client, err = c.word("client"); err != nil {
			return a, err
		}
		if a.Op, a.N, err = c.bound(); err != nil {
			return a, err
		}
	case AssertElapsed:
		op, err := c.word("comparison")
		if err != nil {
			return a, err
		}
		if !isOp(op) {
			return a, fmt.Errorf("%q is not a comparison operator", op)
		}
		a.Op = op
		if a.Dur, err = c.duration("elapsed bound"); err != nil {
			return a, err
		}
	case AssertState:
		if a.Client, err = c.word("client"); err != nil {
			return a, err
		}
		if a.State, err = c.word("state"); err != nil {
			return a, err
		}
	case AssertSpans:
		if a.Metric, err = c.word("span name"); err != nil {
			return a, err
		}
		if a.State, err = c.word("spans mode (count or dur)"); err != nil {
			return a, err
		}
		switch a.State {
		case "count":
			if a.Op, a.N, err = c.bound(); err != nil {
				return a, err
			}
		case "dur":
			op, err := c.word("comparison")
			if err != nil {
				return a, err
			}
			if !isOp(op) {
				return a, fmt.Errorf("%q is not a comparison operator", op)
			}
			a.Op = op
			if a.Dur, err = c.duration("duration bound"); err != nil {
				return a, err
			}
		default:
			return a, fmt.Errorf("spans mode %q is not count or dur", a.State)
		}
	default:
		return a, fmt.Errorf("unknown assertion kind %q", kind)
	}
	if !c.done() {
		return a, fmt.Errorf("trailing arguments after assert %s", kind)
	}
	return a, nil
}

// parseAxis parses a matrix directive: a variable plus explicit values,
// where a single token of the form a..b expands to the integer range.
func parseAxis(c *cursor) (Axis, error) {
	var ax Axis
	var err error
	if ax.Name, err = c.word("axis name"); err != nil {
		return ax, err
	}
	for !c.done() {
		v, err := c.any("axis value")
		if err != nil {
			return ax, err
		}
		if lo, hi, ok := cutRange(v); ok {
			if hi < lo || hi-lo >= 1000 {
				return ax, fmt.Errorf("range %s spans %d values (max 1000, ascending)", v, hi-lo+1)
			}
			for n := lo; n <= hi; n++ {
				ax.Values = append(ax.Values, strconv.FormatInt(n, 10))
			}
			continue
		}
		ax.Values = append(ax.Values, v)
	}
	if len(ax.Values) == 0 {
		return ax, fmt.Errorf("axis %s has no values", ax.Name)
	}
	return ax, nil
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

// cursor walks a token list with typed accessors.
type cursor struct {
	toks []token
	i    int
}

func (c *cursor) done() bool { return c.i >= len(c.toks) }

// peek returns the next token without consuming it.
func (c *cursor) peek() (text string, quoted, ok bool) {
	if c.done() {
		return "", false, false
	}
	return c.toks[c.i].text, c.toks[c.i].quoted, true
}

// must consumes and returns the next token's text; callers have already
// checked done().
func (c *cursor) must() string {
	t := c.toks[c.i].text
	c.i++
	return t
}

// word consumes an unquoted token.
func (c *cursor) word(what string) (string, error) {
	if c.done() {
		return "", fmt.Errorf("missing %s", what)
	}
	t := c.toks[c.i]
	if t.quoted {
		return "", fmt.Errorf("%s must not be quoted", what)
	}
	c.i++
	return t.text, nil
}

// any consumes a token, quoted or not.
func (c *cursor) any(what string) (string, error) {
	if c.done() {
		return "", fmt.Errorf("missing %s", what)
	}
	t := c.toks[c.i]
	c.i++
	return t.text, nil
}

// keyword consumes the expected literal token.
func (c *cursor) keyword(kw string) error {
	if c.done() {
		return fmt.Errorf("missing %q", kw)
	}
	t := c.toks[c.i]
	if t.quoted || t.text != kw {
		return fmt.Errorf("expected %q, got %q", kw, t.text)
	}
	c.i++
	return nil
}

// integer consumes an int64.
func (c *cursor) integer(what string) (int64, error) {
	w, err := c.word(what)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(w, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return n, nil
}

// duration consumes a time.ParseDuration value.
func (c *cursor) duration(what string) (time.Duration, error) {
	w, err := c.word(what)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(w)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("%s must not be negative", what)
	}
	return d, nil
}

// content consumes file content: either a quoted string or `zeros N`.
func (c *cursor) content() ([]byte, error) {
	if c.done() {
		return nil, fmt.Errorf("missing content (quoted string or zeros N)")
	}
	t := c.toks[c.i]
	if t.quoted {
		c.i++
		return []byte(t.text), nil
	}
	if t.text != "zeros" {
		return nil, fmt.Errorf("content must be a quoted string or zeros N, got %q", t.text)
	}
	c.i++
	n, err := c.integer("zeros size")
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 64<<20 {
		return nil, fmt.Errorf("zeros size %d out of range [0, %d]", n, 64<<20)
	}
	return make([]byte, n), nil
}

// bound consumes a comparison operator and an integer.
func (c *cursor) bound() (string, int64, error) {
	op, err := c.word("comparison")
	if err != nil {
		return "", 0, err
	}
	if !isOp(op) {
		return "", 0, fmt.Errorf("%q is not a comparison operator (want == != <= >= < >)", op)
	}
	n, err := c.integer("bound")
	if err != nil {
		return "", 0, err
	}
	return op, n, nil
}
