package obs

import (
	"encoding/json"
	"fmt"
)

// dumpMetric is the JSON shape of one time series in a Dump.
type dumpMetric struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  int64             `json:"value"`
	Le     []int64           `json:"le,omitempty"`
	Counts []int64           `json:"counts,omitempty"`
	Sum    int64             `json:"sum,omitempty"`
	Count  int64             `json:"count,omitempty"`
}

// dumpDoc is the top-level Dump document.
type dumpDoc struct {
	Metrics []dumpMetric `json:"metrics"`
}

// Dump serializes every metric in the registry, gauge funcs evaluated,
// to JSON; spans leave through ExportTrace. The output is
// deterministic: metrics are sorted by (name, labels), and map keys are
// sorted by encoding/json. Two identical seeded sim runs therefore
// produce byte-identical dumps, which the determinism test in
// internal/experiments pins.
func (r *Registry) Dump() []byte {
	doc := dumpDoc{Metrics: []dumpMetric{}}
	if r != nil {
		for _, s := range r.snapshot() {
			dm := dumpMetric{
				Name:   s.Name,
				Kind:   s.Kind,
				Value:  s.Value,
				Le:     s.Le,
				Counts: s.Counts,
				Sum:    s.Sum,
				Count:  s.Count,
			}
			if len(s.Labels) > 0 {
				dm.Labels = make(map[string]string, len(s.Labels))
				for _, l := range s.Labels {
					dm.Labels[l.Key] = l.Value
				}
			}
			doc.Metrics = append(doc.Metrics, dm)
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The document is plain structs and strings; Marshal cannot fail
		// on it short of a bug here.
		panic(fmt.Sprintf("obs: dump marshal: %v", err))
	}
	return append(out, '\n')
}
