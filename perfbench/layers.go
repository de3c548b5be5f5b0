package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mpj/internal/cqueue"
	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// The layer drivers below call one layer's public functions directly,
// fed with the workload's own op stream: the same message sizes, types
// and match keys the workload sends. Each returns a cost per item as
// the median of driverReps timed repetitions. The layers' errors can
// only come from a bug in the driver, so they panic.

const driverReps = 5

// message is one message of an op as the layers see it.
type message struct {
	bytes  int
	double bool
	tag    int32
}

// replay is the workload's op stream as the layer drivers replay it:
// the messages of ops 0..ops-1 on one side of their blocking path.
type replay struct {
	ops  int64
	msgs []message
}

func newReplay(w *workload, in *inputs) replay {
	r := replay{ops: w.driverOps}
	for seq := int64(0); seq < r.ops; seq++ {
		r.msgs = w.messages(in, seq, r.msgs)
	}
	return r
}

// keys returns message m's envelope and the pattern its receive posts,
// AnySource where the workload's receives use it.
func (w *workload) keys(m message) (match.Concrete, match.Pattern) {
	c := match.Concrete{Ctx: 2, Tag: m.tag, Src: 0}
	p := match.Pattern{Ctx: 2, Tag: m.tag, Src: 0}
	if w.anySource {
		p.Src = match.AnySource
	}
	return c, p
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("layer driver: %v", err))
	}
}

// timeReps runs fn driverReps times and returns the median of its
// elapsed time divided by the items fn reports.
func timeReps(fn func() int) float64 {
	return medianOf(func() float64 {
		t0 := time.Now()
		n := fn()
		return float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	})
}

func medianOf(fn func() float64) float64 {
	v := make([]float64, driverReps)
	for i := range v {
		v[i] = fn()
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// allocsPer counts heap allocations per item of one run of fn.
func allocsPer(fn func() int) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	n := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(n, 1))
}

// mpjbufLayer packs and unpacks each op's messages as the message path
// does: pack is Write* into a buffer reset between messages (the pooled
// buffers of the blocking core calls), plus on smpdev the copy into the
// wire form the device hands over (EncodeWire); unpack is LoadWire of
// the message's wire form followed by Read*. It returns ns per op for
// each and allocations per op for both.
func mpjbufLayer(w *workload, in *inputs, rp replay) (packNs, unpackNs, allocs float64) {
	src := make([]byte, solverElems*8)
	copy(src, in.pattern)
	dsrc := make([]float64, solverElems)
	dst := make([]byte, solverElems*8)
	ddst := make([]float64, solverElems)
	wire := make([]byte, solverElems*8+64)
	b, r := mpjbuf.New(0), mpjbuf.New(0)
	wireCopy := w.device == "smpdev"
	pack := func(m message) {
		b.Reset()
		if m.double {
			must(b.WriteDoubles(dsrc, 0, m.bytes/8))
		} else {
			must(b.WriteBytes(src, 0, m.bytes))
		}
	}
	unpack := func(m message, wire []byte) {
		must(r.LoadWire(wire))
		var err error
		if m.double {
			_, err = r.ReadDoubles(ddst, 0, m.bytes/8)
		} else {
			_, err = r.ReadBytes(dst, 0, m.bytes)
		}
		must(err)
	}
	ops := int(rp.ops)
	packNs = timeReps(func() int {
		for _, m := range rp.msgs {
			pack(m)
			if wireCopy {
				b.EncodeWire(wire)
			}
		}
		return ops
	})
	// Each message is packed and encoded off the clock; only the
	// unpack is timed.
	unpackNs = medianOf(func() float64 {
		var el time.Duration
		for _, m := range rp.msgs {
			pack(m)
			k := b.EncodeWire(wire)
			t0 := time.Now()
			unpack(m, wire[:k])
			el += time.Since(t0)
		}
		return float64(el.Nanoseconds()) / float64(ops)
	})
	allocs = allocsPer(func() int {
		for _, m := range rp.msgs {
			pack(m)
			unpack(m, wire[:b.EncodeWire(wire)])
		}
		return ops
	})
	return packNs, unpackNs, allocs
}

const matchItems = 1 << 16

// matchExpected posts each receive (PatternSet.Add) and then matches
// its message against it — the expected path. ns per message.
func matchExpected(w *workload, rp replay) float64 {
	return timeReps(func() int {
		s := match.NewPatternSet[int]()
		for i := 0; i < matchItems; i++ {
			c, p := w.keys(rp.msgs[i%len(rp.msgs)])
			s.Add(p, i)
			if _, ok := s.Match(c); !ok {
				panic("layer driver: posted pattern did not match its envelope")
			}
		}
		return matchItems
	})
}

// matchUnexpected records each message as arrived (ItemSet.Add) and
// then receives it with the workload's pattern — the unexpected path.
// It returns ns per message and the heap the set still holds per
// message once every message has been matched.
func matchUnexpected(w *workload, rp replay) (ns, retainedPerItem float64) {
	fill := func() *match.ItemSet[int] {
		s := match.NewItemSet[int]()
		for i := 0; i < matchItems; i++ {
			c, p := w.keys(rp.msgs[i%len(rp.msgs)])
			s.Add(c, i)
			if _, ok := s.Match(p); !ok {
				panic("layer driver: arrived envelope did not match its pattern")
			}
		}
		return s
	}
	ns = timeReps(func() int {
		fill()
		return matchItems
	})
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	s := fill()
	runtime.GC()
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(s)
	return ns, (float64(b.HeapAlloc) - float64(a.HeapAlloc)) / matchItems
}

// devcoreRequest runs the request lifecycle alone: NewRequest, Complete
// (which pushes onto the completion queue) and Wait (which collects).
func devcoreRequest() (ns, allocs float64) {
	const n = 1 << 16
	c := devcore.New("perfbench")
	run := func() int {
		for i := 0; i < n; i++ {
			r := c.NewRequest(devcore.RecvReq, nil)
			r.Complete(xdev.Status{}, nil)
			_, err := r.Wait()
			must(err)
		}
		return n
	}
	return timeReps(run), allocsPer(run)
}

// devcoreHandoff hands the workload's messages back and forth between
// two goroutines through two devcore cores, as a device delivers them:
// the receiving side posts its receive (PostRecv) and waits; the
// sending side delivers an arrival into the peer's core (MatchOrPark)
// and completes the receive it matched. Keys come from the op stream,
// AnySource receives included. It returns ns per message, which covers
// matching, the request lifecycle and the wake of the waiting
// goroutine.
func devcoreHandoff(w *workload, rp replay) float64 {
	const rounds = 1 << 14
	return timeReps(func() int {
		cores := [2]*devcore.Core{devcore.New("perfbench"), devcore.New("perfbench")}
		// recv posts side s's receive of message i and waits for it.
		recv := func(s int, i int) {
			_, p := w.keys(rp.msgs[i%len(rp.msgs)])
			if p.Src != match.AnySource {
				p.Src = uint64(1 - s)
			}
			req := cores[s].NewRequest(devcore.RecvReq, nil)
			a, err := cores[s].PostRecv(p, req, nil)
			must(err)
			if a != nil {
				req.Complete(xdev.Status{}, nil)
			}
			_, err = req.Wait()
			must(err)
		}
		// deliver hands message i from side s to the other side's core.
		deliver := func(s int, i int) {
			c, _ := w.keys(rp.msgs[i%len(rp.msgs)])
			c.Src = uint64(s)
			req, ok, err := cores[1-s].MatchOrPark(c, &devcore.Arrival{Src: uint64(s)})
			must(err)
			if ok {
				req.Complete(xdev.Status{}, nil)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < rounds; i++ {
				recv(1, i)
				deliver(1, i)
			}
		}()
		for i := 0; i < rounds; i++ {
			deliver(0, i)
			recv(0, i)
		}
		<-done
		return 2 * rounds
	})
}

type cqEntry struct{ slot bool }

func (e *cqEntry) CQSlot() *bool { return &e.slot }

// cqueuePushCollect pushes a completed entry and collects it, as
// Complete and Wait do for every request.
func cqueuePushCollect() float64 {
	const n = 1 << 16
	q := cqueue.New[*cqEntry]()
	es := make([]cqEntry, 64)
	return timeReps(func() int {
		for i := 0; i < n; i++ {
			e := &es[i&63]
			q.Push(e)
			q.Collect(e)
		}
		return n
	})
}

// Wire overhead of one eager frame: niodev's frame header plus the
// mpjbuf wire and section headers.
const frameOverhead = 40 + 8 + 5

// transportWrite writes the workload's frames into one end of an
// in-process transport pipe, as niodev does, while a goroutine drains
// the other end. It returns ns per frame write and MB/s.
func transportWrite(rp replay) (ns, mbps float64) {
	frame := make([]byte, solverElems*8+frameOverhead)
	var bytes int64
	for _, m := range rp.msgs {
		bytes += int64(m.bytes + frameOverhead)
	}
	ns = timeReps(func() int {
		a, b := transport.Pipe(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = io.Copy(io.Discard, b) // ends at a.Close; nothing to report
		}()
		for _, m := range rp.msgs {
			_, err := a.Write(frame[:m.bytes+frameOverhead])
			must(err)
		}
		must(a.Close())
		<-done
		must(b.Close())
		return len(rp.msgs)
	})
	mbps = float64(bytes) / (ns * float64(len(rp.msgs)) / 1e9) / 1e6
	return ns, mbps
}
