package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/codafs"
)

// GenParams shapes a synthetic file-reference trace. The generator's model
// of user activity is the one the paper's analyses depend on: bursts of
// writes to the same file separated by think time (whose spacing determines
// how the aging window limits log optimizations), temporary files created
// and deleted within the trace (identity cancellations), and a large volume
// of reads, stats, and lookups around the updates.
type GenParams struct {
	Name   string
	Seed   int64
	Volume string
	// Duration is the trace's span.
	Duration time.Duration
	// Updates is the target number of update operations.
	Updates int
	// RefsPerUpdate is the ratio of total references to updates (the
	// paper's segments run roughly 30:1 to 200:1).
	RefsPerUpdate int
	// MeanWriteKB is the mean store size in KB (exponentially
	// distributed around this mean).
	MeanWriteKB float64
	// RewriteMean is the mean number of consecutive writes to the same
	// file within an episode. Compressibility ≈ 1 − 1/RewriteMean for
	// size-stable rewrites, so 1.09 → ~8 % and 16 → ~94 %.
	RewriteMean float64
	// RewriteGap is the mean think time between successive writes of the
	// same file; it decides how large an aging window is needed to
	// capture the cancellations (Figure 4's x-axis).
	RewriteGap time.Duration
	// TempFileFrac is the fraction of episodes that create, write, and
	// delete a scratch file (fully cancellable).
	TempFileFrac float64
	// Universe shape.
	DirCount    int
	FilesPerDir int
	// MeanFileKB sizes the pre-existing files that reads reference.
	MeanFileKB float64
	// KeepAbsoluteGaps disables rescaling of think times to fit Duration;
	// the trace then spans whatever the gaps sum to. The week-long traces
	// use it so the rewrite spacing that shapes Figure 4 stays exact.
	KeepAbsoluteGaps bool
}

func (p *GenParams) fillDefaults() {
	if p.Volume == "" {
		p.Volume = "usr"
	}
	if p.Duration == 0 {
		p.Duration = 45 * time.Minute
	}
	if p.Updates == 0 {
		p.Updates = 500
	}
	if p.RefsPerUpdate == 0 {
		p.RefsPerUpdate = 60
	}
	if p.MeanWriteKB == 0 {
		p.MeanWriteKB = 6
	}
	if p.RewriteMean < 1 {
		p.RewriteMean = 1.2
	}
	if p.RewriteGap == 0 {
		p.RewriteGap = 30 * time.Second
	}
	if p.DirCount == 0 {
		p.DirCount = 12
	}
	if p.FilesPerDir == 0 {
		p.FilesPerDir = 20
	}
	if p.MeanFileKB == 0 {
		p.MeanFileKB = 8
	}
}

// Generate produces a deterministic trace from p.
func Generate(p GenParams) *Trace {
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	tr := &Trace{Name: p.Name, Volume: p.Volume, Manifest: make(map[string]int)}

	// Universe of pre-existing files.
	paths := make([]string, 0, p.DirCount*p.FilesPerDir)
	for d := 0; d < p.DirCount; d++ {
		for f := 0; f < p.FilesPerDir; f++ {
			path := codafs.JoinPath(p.Volume, fmt.Sprintf("d%02d", d), fmt.Sprintf("f%03d.dat", f))
			size := expSize(rng, p.MeanFileKB)
			tr.Manifest[path] = size
			paths = append(paths, path)
		}
	}

	// Each update brings one write or remove and at most RefsPerUpdate
	// reads, so this holds the whole trace unless the last episode
	// overshoots Updates by a long rewrite run (append then grows it).
	// Until the normalizing pass below, a record's T holds the think time
	// before it.
	tr.Records = make([]Record, 0, p.Updates*(p.RefsPerUpdate+2))
	push := func(r Record, gap time.Duration) {
		r.T = gap
		tr.Records = append(tr.Records, r)
	}

	readGap := func() time.Duration {
		// Mixture of rapid bursts and think pauses; λ = 1 s and 10 s
		// (the paper's think thresholds) cut it differently. The burst
		// rate matches the segments' ~19 references/second of sustained
		// high activity.
		switch x := rng.Float64(); {
		case x < 0.96:
			return time.Duration(15+rng.Intn(45)) * time.Millisecond
		case x < 0.99:
			return time.Duration(1000+rng.Intn(3000)) * time.Millisecond
		case x < 0.997:
			return time.Duration(10+rng.Intn(50)) * time.Second
		default:
			return time.Duration(60+rng.Intn(240)) * time.Second
		}
	}
	pushReads := func(n int) {
		for i := 0; i < n; i++ {
			path := paths[rng.Intn(len(paths))]
			var r Record
			switch x := rng.Float64(); {
			case x < 0.55:
				r = Record{Op: OpRead, Path: path, Program: "emacs"}
			case x < 0.85:
				r = Record{Op: OpStat, Path: path, Program: "csh"}
			default:
				r = Record{Op: OpReadDir, Path: parentOf(path), Program: "csh"}
			}
			push(r, readGap())
		}
	}

	geometric := func(mean float64) int {
		if mean <= 1 {
			return 1
		}
		// Geometric with mean `mean`: success prob 1/mean.
		k := 1
		for rng.Float64() > 1/mean && k < 200 {
			k++
		}
		return k
	}
	rewriteGap := func() time.Duration {
		// Lognormal-ish around p.RewriteGap.
		f := math.Exp(rng.NormFloat64() * 0.7)
		return time.Duration(float64(p.RewriteGap) * f)
	}

	// Episodes draw write targets without replacement so that only
	// intra-episode rewrites cancel; real users rarely revisit the same
	// file across distant sessions within a 45-minute segment, and cross-
	// episode cancellation would inflate compressibility past the
	// calibration targets.
	writeOrder := rng.Perm(len(paths))
	writeIdx := 0
	nextTarget := func() string {
		if writeIdx >= len(writeOrder) {
			writeOrder = rng.Perm(len(paths))
			writeIdx = 0
		}
		path := paths[writeOrder[writeIdx]]
		writeIdx++
		return path
	}

	updates := 0
	tmpSeq := 0
	for updates < p.Updates {
		k := geometric(p.RewriteMean)
		temp := rng.Float64() < p.TempFileFrac
		size := expSize(rng, p.MeanWriteKB)
		var path string
		if temp {
			tmpSeq++
			path = codafs.JoinPath(p.Volume, fmt.Sprintf("d%02d", rng.Intn(p.DirCount)), fmt.Sprintf("tmp%05d", tmpSeq))
		} else {
			path = nextTarget()
		}
		for i := 0; i < k; i++ {
			jitter := 0.9 + 0.2*rng.Float64()
			push(Record{Op: OpWrite, Path: path, Size: int(float64(size) * jitter), Program: "emacs"}, rewriteGap())
			updates++
			// A burst of reads accompanies each write.
			pushReads(p.RefsPerUpdate * 2 / 3)
		}
		if temp {
			push(Record{Op: OpRemove, Path: path, Program: "emacs"}, rewriteGap())
			updates++
		}
		pushReads(p.RefsPerUpdate / 3)
	}

	// Normalize think times so the trace spans exactly p.Duration
	// (unless the caller needs the raw gap structure preserved).
	scale := 1.0
	if !p.KeepAbsoluteGaps {
		var totalGap time.Duration
		for i := range tr.Records {
			totalGap += tr.Records[i].T
		}
		scale = float64(p.Duration) / float64(totalGap)
	}
	t := time.Duration(0)
	for i := range tr.Records {
		t += time.Duration(float64(tr.Records[i].T) * scale)
		tr.Records[i].T = t
	}
	return tr
}

func expSize(rng *rand.Rand, meanKB float64) int {
	s := int(rng.ExpFloat64() * meanKB * 1024)
	if s < 128 {
		s = 128
	}
	if s > 4<<20 {
		s = 4 << 20
	}
	return s
}

func parentOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// ---- Presets calibrated to the paper ----

// SegmentPreset returns generation parameters for the four 45-minute trace
// segments of Figure 11 (Purcell 8 %, Holst 32 %, Messiaen 69 %, Concord
// 94 % compressibility). seed varies the instance while preserving the
// calibrated statistics; seed 0 is the canonical instance.
func SegmentPreset(name string, seed int64) GenParams {
	base := GenParams{
		Name:     name,
		Seed:     seed,
		Volume:   "usr",
		Duration: 45 * time.Minute,
	}
	switch name {
	case "Purcell":
		base.Seed += 100
		base.Updates = 519
		base.RefsPerUpdate = 99
		base.MeanWriteKB = 5.0
		base.RewriteMean = 1.09
		base.RewriteGap = 12 * time.Second
		base.TempFileFrac = 0.0
		base.DirCount = 30
		base.FilesPerDir = 20
	case "Holst":
		base.Seed += 200
		base.Updates = 596
		base.RefsPerUpdate = 102
		base.MeanWriteKB = 5.3
		base.RewriteMean = 1.47
		base.RewriteGap = 12 * time.Second
		base.TempFileFrac = 0.02
		base.DirCount = 25
		base.FilesPerDir = 20
	case "Messiaen":
		base.Seed += 300
		base.Updates = 188
		base.RefsPerUpdate = 203
		base.MeanWriteKB = 35
		base.RewriteMean = 3.3
		base.RewriteGap = 15 * time.Second
		base.TempFileFrac = 0.03
	case "Concord":
		base.Seed += 400
		base.Updates = 1273
		base.RefsPerUpdate = 125
		base.MeanWriteKB = 26
		base.RewriteMean = 17
		base.RewriteGap = 10 * time.Second
		base.TempFileFrac = 0.02
	default:
		panic("trace: unknown segment preset " + name)
	}
	return base
}

// SegmentNames lists the Figure 11 segments in the paper's order.
var SegmentNames = []string{"Purcell", "Holst", "Messiaen", "Concord"}

// WeekPreset returns generation parameters for the five week-long traces
// of the aging study (Figure 4). The presets differ in rewrite spacing,
// which is what spreads the curves: purcell's rewrites come seconds apart
// (high savings even at small A), while ives and concord space them tens of
// minutes apart (savings need A near an hour). Volumes are scaled ~1/8 of
// the paper's to keep the analysis quick; Figure 4 is normalized, so the
// scale cancels.
func WeekPreset(name string, seed int64) GenParams {
	base := GenParams{
		Name:     name,
		Seed:     seed,
		Volume:   "usr",
		Duration: 7 * 24 * time.Hour,
	}
	switch name {
	case "ives": // savings accrue slowly: long autosave-style gaps
		base.Seed += 1000
		base.Updates = 900
		base.RewriteMean = 4
		base.RewriteGap = 11 * time.Minute
		base.MeanWriteKB = 9
		base.TempFileFrac = 0.01
	case "concord": // huge volume, medium-long gaps
		base.Seed += 2000
		base.Updates = 2400
		base.RewriteMean = 14
		base.RewriteGap = 4 * time.Minute
		base.MeanWriteKB = 30
		base.TempFileFrac = 0.01
	case "holst": // quick bursts: optimizations effective at small A
		base.Seed += 3000
		base.Updates = 8000
		base.RewriteMean = 2.2
		base.RewriteGap = 45 * time.Second
		base.MeanWriteKB = 7
		base.TempFileFrac = 0.05
	case "messiaen": // medium gaps
		base.Seed += 4000
		base.Updates = 3300
		base.RewriteMean = 3.5
		base.RewriteGap = 2 * time.Minute
		base.MeanWriteKB = 17
		base.TempFileFrac = 0.02
	case "purcell": // very tight bursts
		base.Seed += 5000
		base.Updates = 7000
		base.RewriteMean = 2.0
		base.RewriteGap = 10 * time.Second
		base.MeanWriteKB = 8
		base.TempFileFrac = 0.04
	default:
		panic("trace: unknown week preset " + name)
	}
	base.RefsPerUpdate = 1 // the aging analysis only consumes updates
	base.KeepAbsoluteGaps = true
	base.DirCount = 40
	base.FilesPerDir = 25
	return base
}

// WeekNames lists the Figure 4 traces in the paper's legend order.
var WeekNames = []string{"ives", "concord", "holst", "messiaen", "purcell"}
