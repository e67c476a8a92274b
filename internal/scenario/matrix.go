package scenario

import (
	"fmt"
	"strings"
)

// Instance is one concrete scenario generated from a template.
type Instance struct {
	// Name is the template name suffixed with this cell's axis values,
	// e.g. crash_catchup_matrix_crash-3_churn-flappy.
	Name string
	// Vars are the axis bindings that produced this instance, in axis
	// declaration order.
	Vars [][2]string
	// Src is the expanded scenario source, runnable as its own file.
	Src []byte
	// Scenario is the parsed and validated instance.
	Scenario *Scenario
}

// maxInstances bounds a single expansion; a sweep bigger than this is a
// template bug, not a chaos matrix.
const maxInstances = 4096

// ExpandMatrix expands a template into the cross product of its axes,
// in declaration order (the last axis varies fastest). Each instance is
// the template source with every ${axis} replaced by that cell's value,
// matrix directives dropped, and the scenario name suffixed with the
// cell's bindings; instances are parsed and validated before being
// returned, so a template whose cells don't all survive validation is
// rejected as a whole.
func ExpandMatrix(name string, src []byte) ([]Instance, error) {
	tmpl, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	if !tmpl.IsTemplate() {
		return nil, fmt.Errorf("scenario %s: no matrix axes; nothing to expand", tmpl.Name)
	}
	total := 1
	for _, ax := range tmpl.Axes {
		if total > maxInstances/len(ax.Values) {
			return nil, fmt.Errorf("scenario %s: matrix exceeds %d instances", tmpl.Name, maxInstances)
		}
		total *= len(ax.Values)
	}

	var out []Instance
	idx := make([]int, len(tmpl.Axes))
	for cell := 0; cell < total; cell++ {
		inst, err := expandCell(tmpl, src, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(tmpl.Axes[d].Values) {
				break
			}
			idx[d] = 0
		}
	}
	return out, nil
}

// expandCell renders and validates the instance at one axis index
// vector.
func expandCell(tmpl *Scenario, src []byte, idx []int) (Instance, error) {
	inst := Instance{Name: tmpl.Name}
	for d, ax := range tmpl.Axes {
		val := ax.Values[idx[d]]
		inst.Vars = append(inst.Vars, [2]string{ax.Name, val})
		inst.Name += "_" + ax.Name + "-" + sanitize(val)
	}
	inst.Src = renderInstance(src, inst.Name, inst.Vars)
	s, err := Parse(inst.Name, inst.Src)
	if err != nil {
		return inst, fmt.Errorf("matrix cell %s: %w", inst.Name, err)
	}
	if err := Validate(s); err != nil {
		return inst, fmt.Errorf("matrix cell %s: %w", inst.Name, err)
	}
	inst.Scenario = s
	return inst, nil
}

// renderInstance rewrites template source into one instance: matrix
// directives are dropped, the scenario directive is renamed, and axis
// variables are substituted textually (quoted strings included — file
// content may vary by cell).
func renderInstance(src []byte, name string, vars [][2]string) []byte {
	var b strings.Builder
	for _, line := range strings.Split(string(src), "\n") {
		first := firstWord(line)
		switch first {
		case "matrix":
			continue
		case "scenario":
			b.WriteString("scenario " + name + "\n")
			continue
		}
		for _, kv := range vars {
			line = strings.ReplaceAll(line, "${"+kv[0]+"}", kv[1])
		}
		b.WriteString(line + "\n")
	}
	out := b.String()
	// A template without a scenario directive still needs its instances
	// named uniquely.
	if !hasScenarioDirective(out) {
		out = "scenario " + name + "\n" + out
	}
	return []byte(strings.TrimSuffix(out, "\n") + "\n")
}

// firstWord returns the first whitespace-delimited word of a line, ""
// for blank or comment lines.
func firstWord(line string) string {
	line = strings.TrimLeft(line, " \t")
	if line == "" || line[0] == '#' {
		return ""
	}
	end := strings.IndexAny(line, " \t#")
	if end < 0 {
		return line
	}
	return line[:end]
}

// hasScenarioDirective reports whether any line starts with the
// scenario keyword.
func hasScenarioDirective(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		if firstWord(line) == "scenario" {
			return true
		}
	}
	return false
}

// sanitize maps an axis value onto name-safe characters.
func sanitize(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
