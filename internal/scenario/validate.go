package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// clientStates names the Venus states an assert state may expect.
var clientStates = map[string]bool{
	"hoarding":           true,
	"emulating":          true,
	"write-disconnected": true,
}

// traceVolume is the volume every generated trace lives in (the trace
// generator's default).
const traceVolume = "usr"

// Validate statically checks a scenario: every reference resolves and
// the topology is well-formed. A template passes as Parse left it (Parse
// has checked its axes); ExpandMatrix validates each instance.
func Validate(s *Scenario) error {
	_, err := validate(s)
	return err
}

// validate is Validate returning the topology index it resolved, nil for
// a template.
func validate(s *Scenario) (*topology, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: empty name")
	}
	if s.IsTemplate() {
		return nil, nil
	}
	t, err := resolveTopology(s)
	if err != nil {
		return nil, err
	}
	for i := range s.Mounts {
		m := &s.Mounts[i]
		if _, ok := t.clients[m.Client]; !ok {
			return nil, declErr(s, m.Line, "mount", fmt.Errorf("unknown client %q", m.Client))
		}
		if _, ok := t.volumes[m.Volume]; !ok {
			return nil, declErr(s, m.Line, "mount", fmt.Errorf("unknown volume %q", m.Volume))
		}
	}
	for i := range s.Steps {
		if err := validateStep(s, t, &s.Steps[i]); err != nil {
			return nil, err
		}
	}
	for i := range s.Asserts {
		if err := validateAssert(s, t, &s.Asserts[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// topology indexes a scenario's declarations for reference resolution.
type topology struct {
	groups     map[string]*GroupDecl
	groupOrder []string
	volumes    map[string]string // volume → carrying group
	traces     map[string]*TraceDecl
	clients    map[string]*ClientDecl
}

// resolveTopology builds the index, checking uniqueness and that every
// declaration's own references resolve.
func resolveTopology(s *Scenario) (*topology, error) {
	t := &topology{
		groups:  map[string]*GroupDecl{},
		volumes: map[string]string{},
		traces:  map[string]*TraceDecl{},
		clients: map[string]*ClientDecl{},
	}
	if len(s.Groups) == 0 {
		return nil, fmt.Errorf("scenario %s: no group declared", s.Name)
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Members < 1 || g.Members > 16 {
			return nil, declErr(s, g.Line, "group", fmt.Errorf("member count %d out of range [1, 16]", g.Members))
		}
		if _, dup := t.groups[g.Name]; dup {
			return nil, declErr(s, g.Line, "group", fmt.Errorf("duplicate group %q", g.Name))
		}
		t.groups[g.Name] = g
		t.groupOrder = append(t.groupOrder, g.Name)
	}
	defaultGroup := t.groupOrder[0]
	for i := range s.Volumes {
		v := &s.Volumes[i]
		if v.Group == "" {
			v.Group = defaultGroup
		}
		if _, ok := t.groups[v.Group]; !ok {
			return nil, declErr(s, v.Line, "volume", fmt.Errorf("unknown group %q", v.Group))
		}
		if _, dup := t.volumes[v.Name]; dup {
			return nil, declErr(s, v.Line, "volume", fmt.Errorf("duplicate volume %q", v.Name))
		}
		t.volumes[v.Name] = v.Group
	}
	for i := range s.Traces {
		tr := &s.Traces[i]
		if !validSegment(tr.Segment) {
			return nil, declErr(s, tr.Line, "trace", fmt.Errorf("unknown segment %q (want one of %s)",
				tr.Segment, strings.Join(trace.SegmentNames, ", ")))
		}
		if tr.ScalePct < 0 || tr.ScalePct > 400 {
			return nil, declErr(s, tr.Line, "trace", fmt.Errorf("scale %d%% out of range [0, 400]", tr.ScalePct))
		}
		if _, dup := t.traces[tr.Name]; dup {
			return nil, declErr(s, tr.Line, "trace", fmt.Errorf("duplicate trace %q", tr.Name))
		}
		if i == 0 {
			if _, dup := t.volumes[traceVolume]; dup {
				return nil, declErr(s, tr.Line, "trace", fmt.Errorf("trace volume %q collides with a declared volume", traceVolume))
			}
		}
		t.traces[tr.Name] = tr
	}
	if len(s.Traces) > 0 {
		// All traces share the generator's volume; it lives on the default
		// group and is mountable like a declared volume.
		if _, ok := t.volumes[traceVolume]; !ok {
			t.volumes[traceVolume] = defaultGroup
		}
	}
	for i := range s.Seeds {
		d := &s.Seeds[i]
		if _, ok := t.volumes[d.Volume]; !ok {
			return nil, declErr(s, d.Line, "seed-file", fmt.Errorf("unknown volume %q", d.Volume))
		}
	}
	ids := map[uint32]string{}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Group == "" {
			c.Group = defaultGroup
		}
		if _, ok := t.groups[c.Group]; !ok {
			return nil, declErr(s, c.Line, "client", fmt.Errorf("unknown group %q", c.Group))
		}
		if _, dup := t.clients[c.Name]; dup {
			return nil, declErr(s, c.Line, "client", fmt.Errorf("duplicate client %q", c.Name))
		}
		if other, dup := ids[c.ID]; dup {
			return nil, declErr(s, c.Line, "client", fmt.Errorf("id %d already used by client %q", c.ID, other))
		}
		for _, g := range t.groupOrder {
			if c.Name == g {
				return nil, declErr(s, c.Line, "client", fmt.Errorf("client name %q collides with a group", c.Name))
			}
		}
		ids[c.ID] = c.Name
		t.clients[c.Name] = c
	}
	return t, nil
}

// resolveTarget resolves a step/assert target to a group, or to one
// member of a group when the name is <group><index>.
func (t *topology) resolveTarget(name string) (group string, member int, isGroup bool, err error) {
	if _, ok := t.groups[name]; ok {
		return name, -1, true, nil
	}
	for _, g := range t.groupOrder {
		decl := t.groups[g]
		if !strings.HasPrefix(name, g) {
			continue
		}
		idx, convErr := strconv.Atoi(name[len(g):])
		if convErr != nil {
			continue
		}
		if idx < 0 || idx >= decl.Members {
			return "", 0, false, fmt.Errorf("server %q: group %q has %d members", name, g, decl.Members)
		}
		return g, idx, false, nil
	}
	return "", 0, false, fmt.Errorf("unknown server or group %q", name)
}

// validateStep checks one schedule step's references.
func validateStep(s *Scenario, t *topology, st *Step) error {
	fail := func(err error) error { return declErr(s, st.Line, string(st.Kind), err) }
	if st.Client != "" {
		if _, ok := t.clients[st.Client]; !ok {
			return fail(fmt.Errorf("unknown client %q", st.Client))
		}
	}
	switch st.Kind {
	case StepLink, StepFlap:
		if _, _, _, err := t.resolveTarget(st.Target); err != nil {
			return fail(err)
		}
		if _, ok := profileByName[st.Profile]; st.Kind == StepLink && st.Mode == LinkProfile && !ok {
			return fail(fmt.Errorf("unknown profile %q (want ethernet, wavelan, isdn, modem)", st.Profile))
		}
	case StepKill, StepCrashArm, StepRestart:
		g, _, isGroup, err := t.resolveTarget(st.Target)
		if err != nil {
			return fail(err)
		}
		if isGroup {
			return fail(fmt.Errorf("%s needs a single server, not group %q", st.Kind, st.Target))
		}
		if (st.Kind == StepCrashArm || st.Kind == StepRestart) && !t.groups[g].Journal {
			return fail(fmt.Errorf("%s requires group %q to be declared with journal", st.Kind, g))
		}
		if st.Kind == StepRestart {
			// Administrative seed writes (seed-file, seed-dir, trace
			// universes) bypass the replicated log and the journal, so a
			// member rebooted from its journal cannot reconstruct them.
			// Content for crash/restart scenarios must flow through a
			// client, like the repo's crash tests.
			for i := range s.Seeds {
				if t.volumes[s.Seeds[i].Volume] == g {
					return fail(fmt.Errorf("group %q carries seeded content, which is not journaled; seed via a client instead", g))
				}
			}
			if len(s.Traces) > 0 && t.volumes[traceVolume] == g {
				return fail(fmt.Errorf("group %q carries a trace universe, which is not journaled; restart is unsupported there", g))
			}
		}
		if st.From != "" {
			if _, _, fromGroup, err := t.resolveTarget(st.From); err != nil || fromGroup {
				return fail(fmt.Errorf("restart from: %q must name a single server", st.From))
			}
		}
	case StepConverge:
		if _, _, isGroup, err := t.resolveTarget(st.Target); err != nil || !isGroup {
			return fail(fmt.Errorf("converge needs a group, got %q", st.Target))
		}
	case StepReplay:
		if _, ok := t.traces[st.Target]; !ok {
			return fail(fmt.Errorf("unknown trace %q", st.Target))
		}
	}
	return nil
}

// validateAssert checks one assertion's references.
func validateAssert(s *Scenario, t *topology, a *Assert) error {
	fail := func(err error) error { return declErr(s, a.Line, "assert "+string(a.Kind), err) }
	if a.Client != "" {
		if _, ok := t.clients[a.Client]; !ok {
			return fail(fmt.Errorf("unknown client %q", a.Client))
		}
	}
	switch a.Kind {
	case AssertIdentical, AssertStamp:
		if _, _, isGroup, err := t.resolveTarget(a.Target); err != nil || !isGroup {
			return fail(fmt.Errorf("needs a group, got %q", a.Target))
		}
	case AssertFile:
		if _, _, _, err := t.resolveTarget(a.Target); err != nil {
			return fail(err)
		}
	case AssertState:
		if !clientStates[a.State] {
			return fail(fmt.Errorf("unknown state %q (want hoarding, emulating, write-disconnected)", a.State))
		}
	}
	if a.Volume != "" {
		if _, ok := t.volumes[a.Volume]; !ok {
			return fail(fmt.Errorf("unknown volume %q", a.Volume))
		}
	}
	return nil
}

// validSegment reports whether name is one of the trace generator's
// calibrated segments.
func validSegment(name string) bool {
	for _, s := range trace.SegmentNames {
		if s == name {
			return true
		}
	}
	return false
}

// declErr attributes a validation error to its source line.
func declErr(s *Scenario, line int, what string, err error) error {
	return fmt.Errorf("scenario %s:%d: %s: %w", s.Name, line, what, err)
}
