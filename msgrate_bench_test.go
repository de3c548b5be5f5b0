package mpj

// BenchmarkMsgRate measures small-message throughput (messages/sec)
// rather than round-trip latency: S sender goroutines on rank 0 stream
// b.N messages at rank 1, with a windowed credit every 1024 messages
// per sender so the unexpected-message queue stays bounded. This is
// the workload niodev's send engine exists for — many concurrent
// senders funneling into one peer.
// ns/op is per message; the msg/s metric is its reciprocal.

import (
	"fmt"
	"sync"
	"testing"
)

// msgRateWindow is the per-sender credit window: senders pause for an
// ack every window messages so a fast sender cannot buffer an
// unbounded backlog on the receiver.
const msgRateWindow = 1024

func benchMsgRate(b *testing.B, size, senders int, opts *Options) {
	b.SetBytes(int64(size))
	benchWorld(b, 2, opts, func(p *Process) error {
		w := p.World()
		per := b.N/senders + 1
		var wg sync.WaitGroup
		errs := make([]error, senders)
		b.ResetTimer()
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ack := make([]int64, 1)
				if w.Rank() == 0 {
					out := make([]byte, size)
					for i := 0; i < per; i++ {
						if err := w.Send(out, 0, size, BYTE, 1, g); err != nil {
							errs[g] = err
							return
						}
						if (i+1)%msgRateWindow == 0 {
							if _, err := w.Recv(ack, 0, 1, LONG, 1, g); err != nil {
								errs[g] = err
								return
							}
						}
					}
					// Final credit doubles as the flush barrier: it only
					// arrives after the receiver got every message.
					if _, err := w.Recv(ack, 0, 1, LONG, 1, g); err != nil {
						errs[g] = err
					}
					return
				}
				in := make([]byte, size)
				for i := 0; i < per; i++ {
					if _, err := w.Recv(in, 0, size, BYTE, 0, g); err != nil {
						errs[g] = err
						return
					}
					if (i+1)%msgRateWindow == 0 {
						if err := w.Send(ack, 0, 1, LONG, 0, g); err != nil {
							errs[g] = err
							return
						}
					}
				}
				if err := w.Send(ack, 0, 1, LONG, 0, g); err != nil {
					errs[g] = err
				}
			}(g)
		}
		wg.Wait()
		b.StopTimer()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "msg/s")
	}
}

// BenchmarkMsgRate sweeps device × concurrent senders × payload size.
// hybrid pins the two ranks on different simulated nodes so its
// traffic really takes the inner niodev wire path instead of shared
// memory.
func BenchmarkMsgRate(b *testing.B) {
	devices := []struct {
		name string
		opts Options
	}{
		{"smpdev", Options{Device: "smpdev"}},
		{"niodev", Options{Device: "niodev"}},
		{"hybrid", Options{Device: "hybrid", NodeMap: "0,1"}},
	}
	for _, dev := range devices {
		for _, senders := range []int{1, 8} {
			for _, size := range []int{8, 512} {
				b.Run(fmt.Sprintf("%s/%dx%dB", dev.name, senders, size), func(b *testing.B) {
					benchMsgRate(b, size, senders, &dev.opts)
				})
			}
		}
	}
}
