package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mpj"
	"mpj/internal/mpe"
)

// workload is one traffic mix between the two ranks of a job. Its ops
// run in one or more flows; each flow has a leading side on rank 0,
// which times the ops and decides when to stop, and a following side
// on rank 1.
type workload struct {
	name   string
	device string
	why    string
	flows  int
	chunk  int // latency samples per pacing chunk
	// perSample is how many ops one latency sample covers.
	perSample int
	// path describes one latency sample's blocking path, per op, for the
	// coverage report.
	path opPath
	// run is one side of one flow for one phase of the job.
	run func(j *job, p *mpj.Process, f *flow, fi int) error
	// solver says the inputs need the solver's vectors.
	solver bool

	// The op stream as the layer drivers replay it: messages appends op
	// seq's messages on one side of its blocking path; anySource says
	// its receives name AnySource; driverOps is how many ops one
	// driver repetition replays.
	messages  func(in *inputs, seq int64, dst []message) []message
	anySource bool
	driverOps int64
}

// opPath says what one op puts on its blocking path, so that the
// per-layer costs measured alone can be summed into an estimate of the
// op (see METRICS.md, trace.coverage_pct). Every message is packed,
// handed to a waiting receiver through devcore, and unpacked; its send
// request completes on the sending goroutine; on niodev it also crosses
// the transport as one frame.
type opPath struct {
	msgs   float64 // messages per op on the blocking path
	frames float64 // transport writes per op (0: no wire)
}

var workloads = []*workload{
	{
		name: "pingpong-smp", device: "smpdev", flows: 1, chunk: 512, perSample: 1,
		why:  "smpdev closed-loop round trips of 8 B-4 KiB BYTE, exact source and tag",
		path: opPath{msgs: 2},
		run:  pingpong, messages: pingpongMessages, driverOps: 4096,
	},
	{
		name: "stream-nio", device: "niodev", flows: 2, chunk: 16, perSample: streamWindow,
		why:  "niodev: two senders stream 64-message eager windows to AnySource receivers",
		path: opPath{msgs: 1, frames: 1},
		run:  stream, messages: streamMessages, anySource: true, driverOps: 4096,
	},
	{
		name: "solver-nio", device: "niodev", flows: 1, chunk: 2, perSample: 1,
		why:  "niodev steps of a 1 MiB DOUBLE Sendrecv (rendezvous) and a 1 MiB Allreduce SUM",
		path: opPath{msgs: 2, frames: 2},
		run:  solver, messages: solverMessages, solver: true, driverOps: 16,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mode is how a chunk of ops enters the library.
type mode int

const (
	modeCore   mode = iota // through the core API, untraced
	modeTraced             // through the core API, with spans
	modeXdev               // through xdev.Device: ISend/IRecv/Wait
	modes
)

// flow is the state one leader/follower pair shares. The leader owns
// hists, ops, bytes and log; failed is updated by both sides.
type flow struct {
	pace   chan bool // the leader's go/stop decisions, one chunk ahead
	seq    [2]int64  // next op of each side
	hists  [modes]*hist
	ops    int64
	bytes  int64
	failed atomic.Int64
	log    *spanLog
}

// job is one start of a two-rank job. Its chunks of ops cycle through
// cycle's modes, so that a traced run compares core-level, traced and
// xdev-level ops measured side by side in the same job.
type job struct {
	w     *workload
	in    *inputs
	cycle []mode
	flows []*flow
	procs [2]*mpj.Process
	// deadline ends the current phase. Rank 0 sets it; only the
	// leaders, all on rank 0, read it.
	deadline time.Time

	stop    chan struct{}
	stopped sync.Once
	errMu   sync.Mutex
	err     error
}

var errStopped = errors.New("job stopped after a failure")

func newJob(w *workload, in *inputs, cycle []mode, base time.Time) *job {
	j := &job{w: w, in: in, cycle: cycle, stop: make(chan struct{})}
	for i := 0; i < w.flows; i++ {
		// Two pending decisions at most: the leader is never more than
		// one chunk ahead of its follower.
		f := &flow{pace: make(chan bool, 2)}
		for m := range f.hists {
			f.hists[m] = new(hist)
		}
		for _, m := range cycle {
			if m == modeTraced {
				f.log = newSpanLog(base)
			}
		}
		j.flows = append(j.flows, f)
	}
	return j
}

// fail records the first error and aborts the job, so that the other
// rank's blocked calls return instead of hanging.
func (j *job) fail(p *mpj.Process, err error) error {
	if errors.Is(err, errStopped) {
		return err
	}
	j.errMu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.errMu.Unlock()
	j.stopped.Do(func() {
		close(j.stop)
		_ = p.World().Abort(1) // the job is failing already; Abort only unblocks the peer
	})
	return err
}

// chunks runs chunk after chunk of a flow until the leader, which
// checks the clock at the start of each chunk, decides that the next
// one is past the deadline. The decision travels over a Go channel,
// not through the library, one chunk ahead, so the follower never waits
// for it. body gets the chunk's mode.
func (j *job) chunks(f *flow, leader bool, body func(m mode) error) error {
	var deadline time.Time
	if leader {
		deadline = j.deadline // leaders all run on rank 0, which set it
	}
	for c := 0; ; c++ {
		more := false
		if leader {
			more = time.Now().Before(deadline)
			select {
			case f.pace <- more:
			case <-j.stop:
				return errStopped
			}
		}
		if err := body(j.cycle[c%len(j.cycle)]); err != nil {
			return err
		}
		if !leader {
			select {
			case more = <-f.pace:
			case <-j.stop:
				return errStopped
			}
		}
		if !more {
			return nil
		}
	}
}

// spans returns the span log for a chunk of mode m: the flow's log in
// traced chunks, nil (no spans) otherwise.
func (f *flow) spans(m mode) *spanLog {
	if m == modeTraced {
		return f.log
	}
	return nil
}

// phase runs every flow of this rank for one phase of the job.
func (j *job) phase(p *mpj.Process, d time.Duration) error {
	if p.Rank() == 0 {
		j.deadline = time.Now().Add(d)
	}
	if len(j.flows) == 1 {
		return j.w.run(j, p, j.flows[0], 0)
	}
	errs := make([]error, len(j.flows))
	var wg sync.WaitGroup
	for i, f := range j.flows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = j.w.run(j, p, f, i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// deviceStats sums the activity counters of both ranks' devices.
func (j *job) deviceStats() mpe.CounterSnapshot {
	var s mpe.CounterSnapshot
	for _, p := range j.procs {
		if d, ok := p.Device().(interface{ Stats() mpe.CounterSnapshot }); ok {
			s = s.Add(d.Stats())
		}
	}
	return s
}
