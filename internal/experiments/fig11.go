package experiments

import (
	"fmt"

	"repro/internal/trace"
)

// Fig11Row describes one replay segment (Figure 11's columns).
type Fig11Row struct {
	Segment         string
	References      int
	Updates         int
	UnoptKB         int64
	OptKB           int64
	Compressibility float64
}

// Fig11Result reproduces Figure 11 (Segments Used in Trace Replay
// Experiments).
type Fig11Result struct {
	Rows []Fig11Row
}

// Figure11 characterizes the four calibrated segments.
func Figure11(opts Options) Fig11Result {
	opts.fill()
	var res Fig11Result
	for _, name := range trace.SegmentNames {
		tr := trace.Generate(trace.SegmentPreset(name, opts.Seed))
		refs, updates := tr.Counts()
		an := trace.AnalyzeCML(tr, trace.NoAging)
		res.Rows = append(res.Rows, Fig11Row{
			Segment:         name,
			References:      refs,
			Updates:         updates,
			UnoptKB:         an.AppendedBytes / 1024,
			OptKB:           (an.AppendedBytes - an.SavedBytes) / 1024,
			Compressibility: an.Compressibility(),
		})
	}
	return res
}

// Render prints the table in the paper's layout.
func (r Fig11Result) Render() string {
	t := newTable(12, 12, 10, 12, 10, 14)
	t.row("Segment", "References", "Updates", "Unopt.(KB)", "Opt.(KB)", "Compressibility")
	t.line()
	for _, row := range r.Rows {
		t.row(row.Segment,
			fmt.Sprintf("%d", row.References),
			fmt.Sprintf("%d", row.Updates),
			fmt.Sprintf("%d", row.UnoptKB),
			fmt.Sprintf("%d", row.OptKB),
			fmt.Sprintf("%.0f%%", row.Compressibility*100))
	}
	return "Figure 11: Segments Used in Trace Replay Experiments\n" + t.String()
}
