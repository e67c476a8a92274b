// Package andrew implements an Andrew-benchmark-style workload over Venus.
//
// The paper considers the Andrew benchmark as the obvious way to evaluate
// trickle reintegration and rejects it (§6.2) for three reasons: it runs in
// under three minutes (no updates propagate within any reasonable aging
// window), its references are only marginally affected by log optimizations
// (no overwrite cancellations), and it has no user think time. This package
// exists to *demonstrate* those limitations on this reproduction — see
// TestAndrewInsensitiveToBandwidth in this package — and doubles as a
// compact end-to-end smoke workload.
//
// Phases follow the classic structure: MakeDir (create the subtree),
// Copy (populate source files), ScanDir (stat everything), ReadAll (read
// every file), and Make (a "compilation" that reads sources and writes
// objects).
package andrew

import (
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/venus"
)

// Config sizes the benchmark tree.
type Config struct {
	// Root is the /coda path under which the tree is built.
	Root string
	// Dirs and FilesPerDir shape the source tree (default 5 × 14 ≈ the
	// original's ~70 files).
	Dirs        int
	FilesPerDir int
	// FileKB sizes each source file (default 4 KB).
	FileKB int
	// CompileCost models per-file CPU time in the Make phase.
	CompileCost time.Duration
}

func (c *Config) fill() {
	if c.Dirs == 0 {
		c.Dirs = 5
	}
	if c.FilesPerDir == 0 {
		c.FilesPerDir = 14
	}
	if c.FileKB == 0 {
		c.FileKB = 4
	}
	if c.CompileCost == 0 {
		c.CompileCost = 100 * time.Millisecond
	}
}

// Result reports per-phase and total elapsed (virtual) time.
type Result struct {
	MakeDir, Copy, ScanDir, ReadAll, Make time.Duration
	Total                                 time.Duration
	Files                                 int
}

// Run executes the benchmark against v on clock.
func Run(clock simtime.Clock, v *venus.Venus, cfg Config) (Result, error) {
	cfg.fill()
	var res Result
	start := clock.Now()
	phase := func(d *time.Duration, fn func() error) error {
		t0 := clock.Now()
		if err := fn(); err != nil {
			return err
		}
		*d = clock.Now().Sub(t0)
		return nil
	}

	dir := func(i int) string { return fmt.Sprintf("%s/d%02d", cfg.Root, i) }
	file := func(i, j int) string { return fmt.Sprintf("%s/src%02d.c", dir(i), j) }
	content := make([]byte, cfg.FileKB<<10)
	for i := range content {
		content[i] = byte('a' + i%23)
	}

	// Phase I: MakeDir.
	if err := phase(&res.MakeDir, func() error {
		if err := v.Mkdir(cfg.Root); err != nil {
			return err
		}
		for i := 0; i < cfg.Dirs; i++ {
			if err := v.Mkdir(dir(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("andrew: MakeDir: %w", err)
	}

	// Phase II: Copy.
	if err := phase(&res.Copy, func() error {
		for i := 0; i < cfg.Dirs; i++ {
			for j := 0; j < cfg.FilesPerDir; j++ {
				if err := v.WriteFile(file(i, j), content); err != nil {
					return err
				}
				res.Files++
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("andrew: Copy: %w", err)
	}

	// Phase III: ScanDir.
	if err := phase(&res.ScanDir, func() error {
		for i := 0; i < cfg.Dirs; i++ {
			names, err := v.ReadDir(dir(i))
			if err != nil {
				return err
			}
			for _, n := range names {
				if _, err := v.Stat(dir(i) + "/" + n); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("andrew: ScanDir: %w", err)
	}

	// Phase IV: ReadAll.
	if err := phase(&res.ReadAll, func() error {
		for i := 0; i < cfg.Dirs; i++ {
			for j := 0; j < cfg.FilesPerDir; j++ {
				if _, err := v.ReadFile(file(i, j)); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("andrew: ReadAll: %w", err)
	}

	// Phase V: Make.
	if err := phase(&res.Make, func() error {
		for i := 0; i < cfg.Dirs; i++ {
			for j := 0; j < cfg.FilesPerDir; j++ {
				if _, err := v.ReadFile(file(i, j)); err != nil {
					return err
				}
				clock.Sleep(cfg.CompileCost)
				obj := fmt.Sprintf("%s/src%02d.o", dir(i), j)
				if err := v.WriteFile(obj, content[:len(content)/2]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("andrew: Make: %w", err)
	}

	res.Total = clock.Now().Sub(start)
	return res, nil
}
