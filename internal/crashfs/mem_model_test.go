package crashfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// flat is memNode as it was before paging — one slice grown by append and
// a synced prefix of it — kept as the reference the paged node must match
// byte for byte.
type flat struct {
	data   []byte
	synced int
}

func (f *flat) write(p []byte) { f.data = append(f.data, p...) }
func (f *flat) sync()          { f.synced = len(f.data) }
func (f *flat) truncate(n int) {
	if len(f.data) > n {
		f.data = f.data[:n]
	}
	f.synced = min(f.synced, len(f.data))
}
func (f *flat) reboot(keep int) {
	f.data = append([]byte(nil), f.data[:min(f.synced+keep, len(f.data))]...)
	f.synced = len(f.data)
}

// modelRun drives one file of a Mem and the flat reference through the
// same steps and compares them after each.
type modelRun struct {
	t       *testing.T
	m       *Mem
	w       File // nil after a reboot, until the next create
	ref     flat
	rng     *rand.Rand
	crashIn int // writes until the armed power cut; 0 = none armed
	keep    int
}

const modelFile = "d/f"

func (r *modelRun) create() {
	w, err := r.m.Create(modelFile)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.m.SyncDir("d"); err != nil {
		r.t.Fatal(err)
	}
	r.w, r.ref = w, flat{}
}

func (r *modelRun) payload(n int) []byte {
	p := make([]byte, n)
	r.rng.Read(p)
	return p
}

// write issues one Write of n bytes, first arming fault (0 none, 1 failed
// write, 2 short write) unless a power cut is pending, and applies what
// the contract says reaches the volatile image to the reference.
func (r *modelRun) write(n, fault int) {
	p := r.payload(n)
	if r.crashIn > 0 {
		fault = 0
	}
	injected := errors.New("injected")
	short := 0
	switch fault {
	case 1:
		r.m.FailWrite(1, injected)
	case 2:
		short = r.rng.Intn(n + 2)
		r.m.ShortWrite(1, short)
	}
	got, err := r.w.Write(p)
	switch {
	case r.crashIn == 1:
		r.ref.write(p)
		if got != 0 || !errors.Is(err, ErrCrashed) {
			r.t.Fatalf("crashing write: %d, %v", got, err)
		}
		r.check()
		r.reboot()
	case fault == 1:
		if got != 0 || !errors.Is(err, injected) {
			r.t.Fatalf("failed write: %d, %v", got, err)
		}
	case fault == 2:
		r.ref.write(p[:min(short, n)])
		if got != min(short, n) || !errors.Is(err, io.ErrShortWrite) {
			r.t.Fatalf("short write of %d keeping %d: %d, %v", n, short, got, err)
		}
	default:
		r.ref.write(p)
		if got != n || err != nil {
			r.t.Fatalf("write of %d: %d, %v", n, got, err)
		}
		if r.crashIn > 0 {
			r.crashIn--
		}
	}
}

// reboot restarts a crashed Mem; the armed allowance of un-synced bytes
// survives, and the write handle does not.
func (r *modelRun) reboot() {
	r.m.Reboot()
	r.ref.reboot(r.keep)
	r.w, r.crashIn, r.keep = nil, 0, 0
}

// check compares the node with the reference: sizes, the synced mark,
// and the bytes, read back both in one Read that a flat slice would have
// satisfied whole and through io.ReadAll's small buffers. While crashed
// only the internals can be looked at.
func (r *modelRun) check() {
	r.t.Helper()
	r.m.mu.Lock()
	node, crashed := r.m.cur[modelFile], r.m.crashed
	size, synced := node.size, node.synced
	r.m.mu.Unlock()
	if size != len(r.ref.data) || synced != r.ref.synced {
		r.t.Fatalf("size/synced = %d/%d, reference %d/%d", size, synced, len(r.ref.data), r.ref.synced)
	}
	if crashed {
		return
	}
	f, err := r.m.Open(modelFile)
	if err != nil {
		r.t.Fatal(err)
	}
	whole := make([]byte, size+7)
	wantErr := error(nil)
	if size == 0 {
		wantErr = io.EOF
	}
	if n, err := f.Read(whole); n != size || err != wantErr {
		r.t.Fatalf("one Read of a %d-byte file: %d, %v", size, n, err)
	}
	if !bytes.Equal(whole[:size], r.ref.data) {
		r.t.Fatalf("contents differ from the reference (%d bytes)", size)
	}
	f, _ = r.m.Open(modelFile)
	all, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(all, r.ref.data) {
		r.t.Fatalf("ReadAll differs from the reference (%d bytes, %v)", size, err)
	}
}

func (r *modelRun) truncate(n int) {
	if err := r.m.Truncate(modelFile, int64(n)); err != nil {
		r.t.Fatal(err)
	}
	r.ref.truncate(n)
}

// TestMemNodeModel checks the paged memNode against the flat reference:
// first a script that lands on and around every page boundary, then
// seeded random sequences of every operation and fault that reaches a
// node.
func TestMemNodeModel(t *testing.T) {
	edges := []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 3*pageSize + 17}

	t.Run("boundaries", func(t *testing.T) {
		r := &modelRun{t: t, m: NewMem(), rng: rand.New(rand.NewSource(1))}
		for _, first := range edges {
			for _, second := range edges {
				r.create()
				r.write(first, 0)
				r.check()
				r.write(second, 0)
				r.check()
				if err := r.w.Sync(); err != nil {
					t.Fatal(err)
				}
				r.ref.sync()
				r.write(pageSize/2, 0)
				r.check()
				// Cut a multi-page file back to each boundary it still has,
				// then write across the cut.
				for _, cut := range []int{3 * pageSize, 2*pageSize + 1, 2 * pageSize, pageSize, pageSize - 1, 1, 0} {
					r.truncate(cut)
					r.check()
				}
				r.write(second, 0)
				r.check()
			}
		}
	})

	for seed := int64(1); seed <= 6; seed++ {
		r := &modelRun{t: t, m: NewMem(), rng: rand.New(rand.NewSource(seed))}
		r.create()
		size := func() int {
			if r.rng.Intn(3) == 0 {
				return edges[r.rng.Intn(len(edges))]
			}
			return r.rng.Intn(20_000)
		}
		for step := 0; step < 300; step++ {
			if r.w == nil {
				// After a reboot the survivor can only be read and cut
				// (recovery drops a torn tail) until it is replaced.
				if r.rng.Intn(2) == 0 {
					r.truncate(r.rng.Intn(len(r.ref.data) + 2))
					r.check()
				}
				r.create()
			}
			if len(r.ref.data) > 8*pageSize {
				r.truncate(r.rng.Intn(pageSize))
			}
			switch op := r.rng.Intn(10); {
			case op < 5:
				r.write(size(), r.rng.Intn(8)) // faults 1 and 2 one time in eight each
			case op < 7:
				if err := r.w.Sync(); err != nil {
					t.Fatal(err)
				}
				r.ref.sync()
			case op == 7:
				cut := r.rng.Intn(len(r.ref.data) + 2)
				if r.rng.Intn(2) == 0 {
					cut = cut / pageSize * pageSize
				}
				r.truncate(cut)
			case op == 8 && r.crashIn == 0:
				r.crashIn, r.keep = 1+r.rng.Intn(3), size()
				r.m.ArmCrash(r.crashIn, r.keep)
			case op == 9:
				r.m.Crash()
				r.check()
				r.reboot()
			}
			r.check()
		}
	}
}

// TestMemWriteCopiesOnce: a segment-sized file written a WAL frame at a
// time allocates little more than it holds — every page but the first is
// allocated once, at full size, and never copied.
func TestMemWriteCopiesOnce(t *testing.T) {
	const segment = 1 << 20
	frame := make([]byte, 8<<10+8)
	m := NewMem()
	f, err := m.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	written := 0
	for ; written+len(frame) <= segment; written += len(frame) {
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(written)
	t.Logf("%.3f bytes allocated per byte appended", perByte)
	if perByte > 1.15 {
		t.Fatalf("%.2f bytes allocated per byte appended over a %d-byte segment, want <= 1.15", perByte, written)
	}
}
