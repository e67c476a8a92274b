package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/world"
)

// BenchmarkServerParallelVolumes measures the payoff of per-volume
// concurrency domains. A bulk writer churns volume v0 with 1 MB stores
// while four clients issue small writes. With vols=1 every client write
// queues behind the bulk copies on the single volume's lock — exactly the
// behaviour of the old whole-server mutex, where it happened regardless
// of volume. With vols=4 the clients' volumes are independent domains and
// their writes complete without waiting for the churn (and, given cores,
// in parallel with it).
func BenchmarkServerParallelVolumes(b *testing.B) {
	const clients = 4
	small := bytes.Repeat([]byte("w"), 4<<10)
	bulk := bytes.Repeat([]byte("B"), 1<<20)
	for _, vols := range []int{1, 4} {
		b.Run(fmt.Sprintf("vols=%d", vols), func(b *testing.B) {
			srv := world.New(1).Group(false, "server").Member(0)
			defer srv.Close()
			for v := 0; v < vols; v++ {
				if _, err := srv.CreateVolume(fmt.Sprintf("v%d", v)); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := srv.WriteFile("v0", "bulk.dat", bulk); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < clients; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						// With one volume everyone shares the churned
						// domain; with several the clients work in the
						// others.
						vol := "v0"
						if vols > 1 {
							vol = fmt.Sprintf("v%d", 1+w%(vols-1))
						}
						name := fmt.Sprintf("client%d.dat", w)
						if _, err := srv.WriteFile(vol, name, small); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			close(stop)
			churn.Wait()
		})
	}
}
