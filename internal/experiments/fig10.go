package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// Fig10Result reproduces Figure 10 (Compressibility of Trace Segments): a
// histogram of segment compressibility over 45-minute high-activity
// segments whose optimized CML is at least 1 MB.
type Fig10Result struct {
	Segments   int
	Buckets    [10]int // [0-10%), [10-20%), ...
	Below20    float64 // fraction of segments under 20% (paper: ~1/3)
	Mid40to100 float64
}

// Figure10 generates a population of segments with the diversity observed
// in the paper's traces (a low-compressibility cluster and a broad 40-100%
// cluster) and histograms their measured compressibility.
func Figure10(opts Options) Fig10Result {
	opts.fill()
	n := 60
	if opts.Quick {
		n = 16
	}
	rng := rand.New(rand.NewSource(opts.Seed + 77))
	var res Fig10Result
	for i := 0; i < n; i++ {
		p := randomSegment(rng, opts.Seed+int64(i))
		tr := trace.Generate(p)
		an := trace.AnalyzeCML(tr, trace.NoAging)
		if an.AppendedBytes-an.SavedBytes < 1<<20 {
			// The paper only histograms segments whose final CML is
			// 1 MB or more.
			continue
		}
		c := an.Compressibility()
		b := int(c * 10)
		if b > 9 {
			b = 9
		}
		res.Buckets[b]++
		res.Segments++
	}
	for b, cnt := range res.Buckets {
		frac := float64(cnt) / float64(res.Segments)
		if b < 2 {
			res.Below20 += frac
		}
		if b >= 4 {
			res.Mid40to100 += frac
		}
	}
	return res
}

// randomSegment draws generation parameters matching the population of
// Figure 10: roughly a third of segments below 20% compressibility, the
// rest spread over 40–100%.
func randomSegment(rng *rand.Rand, seed int64) trace.GenParams {
	var target float64
	if rng.Float64() < 0.34 {
		target = 0.02 + 0.16*rng.Float64()
	} else {
		target = 0.40 + 0.58*rng.Float64()
	}
	rewrite := 1 / (1 - target)
	if rewrite > 40 {
		rewrite = 40
	}
	return trace.GenParams{
		Name:          fmt.Sprintf("seg%d", seed),
		Seed:          seed,
		Duration:      45 * time.Minute,
		Updates:       400 + rng.Intn(900),
		RefsPerUpdate: 40 + rng.Intn(120),
		MeanWriteKB:   6 + 30*rng.Float64(),
		RewriteMean:   rewrite,
		RewriteGap:    time.Duration(8+rng.Intn(25)) * time.Second,
		TempFileFrac:  0.03 * rng.Float64(),
		DirCount:      30,
		FilesPerDir:   25,
	}
}

// Render prints the histogram.
func (r Fig10Result) Render() string {
	t := newTable(14, 8, 40)
	t.row("Compress.", "Count", "")
	t.line()
	for b, cnt := range r.Buckets {
		bar := ""
		for i := 0; i < cnt; i++ {
			bar += "#"
		}
		t.row(fmt.Sprintf("%d-%d%%", b*10, (b+1)*10), fmt.Sprintf("%d", cnt), bar)
	}
	return fmt.Sprintf("Figure 10: Compressibility of Trace Segments (%d segments ≥1MB; %.0f%% below 20%%, %.0f%% in 40-100%%)\n%s",
		r.Segments, r.Below20*100, r.Mid40to100*100, t.String())
}
