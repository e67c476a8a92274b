package crashfs

import (
	"bytes"
	"testing"
)

// cutFS passes every operation WriteFileAtomic can make through to a Mem,
// counting them, and cuts the power just before the cutAt-th.
type cutFS struct {
	*Mem
	ops, cutAt int
}

func (c *cutFS) step() {
	if c.ops++; c.ops == c.cutAt {
		c.Mem.Crash()
	}
}

type cutFile struct {
	File
	c *cutFS
}

func (c *cutFS) Create(name string) (File, error) {
	c.step()
	f, err := c.Mem.Create(name)
	return cutFile{f, c}, err
}
func (c *cutFS) Rename(o, n string) error { c.step(); return c.Mem.Rename(o, n) }
func (c *cutFS) Remove(name string) error { c.step(); return c.Mem.Remove(name) }
func (c *cutFS) SyncDir(dir string) error { c.step(); return c.Mem.SyncDir(dir) }

func (f cutFile) Write(p []byte) (int, error) { f.c.step(); return f.File.Write(p) }
func (f cutFile) Sync() error                 { f.c.step(); return f.File.Sync() }
func (f cutFile) Close() error                { f.c.step(); return f.File.Close() }

// TestWriteFileAtomicCrashSweep cuts the power before every operation of
// WriteFileAtomic — create, write, sync, close, rename, directory sync —
// and inside the write with none, some, or all of the un-synced bytes
// surviving. After reboot the path holds the old contents or the new,
// never a mixture; and the new, whenever WriteFileAtomic returned nil.
func TestWriteFileAtomicCrashSweep(t *testing.T) {
	const path = "dir/state"
	before := bytes.Repeat([]byte("old image "), 40)
	after := bytes.Repeat([]byte("NEW "), 300)

	try := func(name string, arm func(*Mem) FS) (ops int) {
		mem := NewMem()
		if err := mem.MkdirAll("dir"); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(mem, path, before); err != nil {
			t.Fatal(err)
		}
		fs := arm(mem)
		err := WriteFileAtomic(fs, path, after)
		mem.Crash()
		mem.Reboot()
		got := read(t, mem, path)
		switch {
		case bytes.Equal(got, after):
		case bytes.Equal(got, before) && err != nil:
		case err == nil:
			t.Errorf("%s: WriteFileAtomic returned nil but the new contents did not survive", name)
		default:
			t.Errorf("%s: %d bytes that are neither the old file nor the new: %.40q...", name, len(got), got)
		}
		if c, ok := fs.(*cutFS); ok {
			return c.ops
		}
		return 0
	}

	total := try("no cut", func(m *Mem) FS { return &cutFS{Mem: m} })
	if total != 6 {
		t.Errorf("WriteFileAtomic made %d operations, want create, write, sync, close, rename, syncdir", total)
	}
	for cut := 1; cut <= total; cut++ {
		try("cut before operation "+string(rune('0'+cut)), func(m *Mem) FS { return &cutFS{Mem: m, cutAt: cut} })
	}
	for _, keep := range []int{0, 1, len(after) / 2, len(after)} {
		try("cut inside the write", func(m *Mem) FS { m.ArmCrash(1, keep); return m })
	}
}
