package cml

import (
	"testing"
	"time"
)

func BenchmarkAppendNoCancel(b *testing.B) {
	l := NewLog()
	now := time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(Record{Kind: Create, FID: fid(uint64(i) + 2), Parent: dirFID, Name: "f"}, now)
		if l.Len() > 4096 {
			b.StopTimer()
			l.BeginReintegration(0, 1<<62, now.Add(time.Hour))
			l.CommitReintegration()
			b.StartTimer()
		}
	}
}

// BenchmarkAppendStoreLongLog appends a store to a file no record names
// behind 4,096 unfrozen records: no rule can cancel anything, so its cost
// must not grow with the log. Each store is taken out again, so every
// append finds the same log.
func BenchmarkAppendStoreLongLog(b *testing.B) {
	l := NewLog()
	now := time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 4096; i++ {
		l.Append(Record{Kind: Create, FID: fid(uint64(i) + 2), Parent: dirFID, Name: "f"}, now)
	}
	data := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(Record{Kind: Store, FID: fid(1 << 20), Parent: dirFID, Name: "g", Data: data, Length: 64}, now)
		l.mu.Lock()
		last := len(l.records) - 1
		l.refLocked(l.records[last], -1)
		l.records[last] = nil
		l.records = l.records[:last]
		l.mu.Unlock()
	}
}

func BenchmarkAppendWithCancellation(b *testing.B) {
	l := NewLog()
	now := time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every append cancels the previous store of the same file.
		l.Append(Record{Kind: Store, FID: fid(2), Parent: dirFID, Name: "f", Data: data, Length: 4096}, now)
	}
}

func BenchmarkChunkSelection(b *testing.B) {
	l := NewLog()
	now := time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 2048; i++ {
		l.Append(Record{Kind: Store, FID: fid(uint64(i) + 2), Parent: dirFID, Name: "f",
			Data: make([]byte, 1024), Length: 1024}, now)
	}
	later := now.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chunk := l.BeginReintegration(time.Minute, 36<<10, later); chunk != nil {
			l.AbortReintegration()
		}
	}
}

func BenchmarkSubtreeClosure(b *testing.B) {
	l := NewLog()
	l.SetOptimize(false)
	now := time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 512; i++ {
		l.Append(Record{Kind: Store, FID: fid(uint64(i%16) + 2), Parent: fid(uint64(i%4) + 50), Name: "f",
			Data: make([]byte, 256), Length: 256}, now)
	}
	target := fid(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chunk := l.BeginSubtreeReintegration(func(r *Record) bool { return r.FID == target }); chunk != nil {
			l.AbortReintegration()
		}
	}
}
