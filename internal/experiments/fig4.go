package experiments

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Fig4Point is one point of an aging curve: savings at window A as a
// fraction of savings at the 4-hour reference window.
type Fig4Point struct {
	A     time.Duration
	Ratio float64
}

// Fig4Curve is one trace's curve plus its denominator (the paper's caption
// reports these: 84 MB for ives, 817 MB for concord, ...).
type Fig4Curve struct {
	Trace      string
	BaselineMB float64
	Points     []Fig4Point
}

// Fig4Result reproduces Figure 4 (Effect of Aging on Optimizations).
type Fig4Result struct {
	Curves []Fig4Curve
}

// Fig4Windows is the x-axis of the aging study.
var Fig4Windows = []time.Duration{
	1 * time.Second, 3 * time.Second, 10 * time.Second, 30 * time.Second,
	100 * time.Second, 300 * time.Second, 600 * time.Second,
	1800 * time.Second, 3600 * time.Second, 4 * time.Hour,
}

// Figure4 runs the five week-long traces through the CML simulator at each
// aging window and normalizes to the 4-hour window (§4.3.4).
func Figure4(opts Options) Fig4Result {
	opts.fill()
	var res Fig4Result
	names := trace.WeekNames
	if opts.Quick {
		names = names[:2]
	}
	for _, name := range names {
		tr := trace.Generate(trace.WeekPreset(name, opts.Seed))
		base := trace.AnalyzeCML(tr, 4*time.Hour).SavedBytes
		curve := Fig4Curve{Trace: name, BaselineMB: float64(base) / (1 << 20)}
		for _, a := range Fig4Windows {
			an := trace.AnalyzeCML(tr, a)
			ratio := 0.0
			if base > 0 {
				ratio = float64(an.SavedBytes) / float64(base)
			}
			curve.Points = append(curve.Points, Fig4Point{A: a, Ratio: ratio})
		}
		res.Curves = append(res.Curves, curve)
	}
	return res
}

// Render prints the curves as a table (rows: A; columns: traces).
func (r Fig4Result) Render() string {
	widths := []int{10}
	header := []string{"A (s)"}
	for _, c := range r.Curves {
		widths = append(widths, 10)
		header = append(header, c.Trace)
	}
	t := newTable(widths...)
	t.row(header...)
	t.line()
	for i, a := range Fig4Windows {
		if i >= len(r.Curves[0].Points) {
			break
		}
		row := []string{fmt.Sprintf("%.0f", a.Seconds())}
		for _, c := range r.Curves {
			row = append(row, fmt.Sprintf("%.2f", c.Points[i].Ratio))
		}
		t.row(row...)
	}
	out := "Figure 4: Effect of Aging on Optimizations (ratio of savings vs A=4h)\n" + t.String()
	out += "Baselines (savings at A=4h): "
	for i, c := range r.Curves {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %.0f MB", c.Trace, c.BaselineMB)
	}
	return out + "\n"
}
