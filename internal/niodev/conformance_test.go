package niodev

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

var jobCounter atomic.Int64

// conformanceRunner adapts the shared device conformance suite. A
// positive queueBound lowers every peer send queue's frame bound
// before the job body runs; zero keeps DefaultSendQueue.
func conformanceRunner(tr func() xdev.Transport, queueBound int) devtest.JobRunner {
	return func(t *testing.T, n int, fn func(d xdev.Device, rank int, pids []xdev.ProcessID)) {
		t.Helper()
		dialer := tr()
		job := jobCounter.Add(1)
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("conf-%d-rank-%d", job, i)
		}
		devs := make([]*Device, n)
		pidLists := make([][]xdev.ProcessID, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			devs[i] = New()
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				pidLists[rank], errs[rank] = devs[rank].Init(xdev.Config{
					Rank: rank, Size: n, Addrs: addrs, Dialer: dialer,
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rank %d init: %v", i, err)
			}
		}
		defer func() {
			for _, d := range devs {
				d.Finish()
			}
		}()
		if queueBound > 0 {
			for _, d := range devs {
				setQueueBound(d, queueBound)
			}
		}
		var jobWG sync.WaitGroup
		for i := 0; i < n; i++ {
			jobWG.Add(1)
			go func(rank int) {
				defer jobWG.Done()
				fn(devs[rank], rank, pidLists[rank])
			}(i)
		}
		jobWG.Wait()
	}
}

func inProc() xdev.Transport { return transport.NewInProc(0) }

func TestConformanceInProc(t *testing.T) {
	devtest.RunConformance(t, conformanceRunner(inProc, 0),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

// TestConformanceInProcDirect runs the suite with every peer send
// queue bounded at one frame. A sender then either writes its frame
// directly, under the destination lock (the caller-runs path: the
// paper's lock/send/unlock), or waits for the one queued slot, so
// every operation of the suite crosses the engine's inline write and
// its bounded-enqueue backpressure.
func TestConformanceInProcDirect(t *testing.T) {
	devtest.RunConformance(t, conformanceRunner(inProc, 1),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

// TestConformanceTCP runs the same suite over real loopback sockets —
// the transport multi-process jobs use.
func TestConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP suite skipped in -short mode")
	}
	devtest.RunConformance(t, func(t *testing.T, n int, fn func(d xdev.Device, rank int, pids []xdev.ProcessID)) {
		t.Helper()
		// Reserve ports by listening on :0 first, then closing;
		// niodev's dial retry tolerates the small race.
		addrs := make([]string, n)
		for i := range addrs {
			l, err := transport.TCP{}.Listen("127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback unavailable: %v", err)
			}
			addrs[i] = l.Addr().String()
			l.Close()
		}
		devs := make([]*Device, n)
		pidLists := make([][]xdev.ProcessID, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			devs[i] = New()
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				pidLists[rank], errs[rank] = devs[rank].Init(xdev.Config{
					Rank: rank, Size: n, Addrs: addrs, Dialer: transport.TCP{},
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rank %d init: %v", i, err)
			}
		}
		defer func() {
			for _, d := range devs {
				d.Finish()
			}
		}()
		var jobWG sync.WaitGroup
		for i := 0; i < n; i++ {
			jobWG.Add(1)
			go func(rank int) {
				defer jobWG.Done()
				fn(devs[rank], rank, pidLists[rank])
			}(i)
		}
		jobWG.Wait()
	}, devtest.Options{HasPeek: true, LargeN: 60_000, RendezvousAt: DefaultEagerLimit})
}

// TestChaosConformanceInProc runs the shared failure-semantics suite:
// blocked calls must fail typed, not hang, under Finish and peer death.
func TestChaosConformanceInProc(t *testing.T) {
	devtest.RunChaos(t, conformanceRunner(inProc, 0), devtest.ChaosOptions{HasPeek: true})
}

// TestChaosConformanceInProcDirect is the failure-semantics suite at a
// queue bound of one frame (see TestConformanceInProcDirect): peer
// death and Finish must also wake senders blocked on a full queue.
func TestChaosConformanceInProcDirect(t *testing.T) {
	devtest.RunChaos(t, conformanceRunner(inProc, 1), devtest.ChaosOptions{HasPeek: true})
}

// TestRecoveryConformanceInProc runs the survivor-continues recovery
// suite: kill a rank mid-operation, then Revoke/Shrink/Agree/Restore.
func TestRecoveryConformanceInProc(t *testing.T) {
	devtest.RunRecovery(t, conformanceRunner(inProc, 0))
}
