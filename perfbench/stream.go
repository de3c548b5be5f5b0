package main

import (
	"fmt"
	"time"

	"mpj"
)

const streamWindow = 64

// creditWord is the payload of the credit that closes window win of
// flow g.
func (in *inputs) creditWord(g int, win int64) uint64 { return in.checkWord(2+g, win, 8) }

// streamMessages: op seq is message seq/2 of flow seq%2, so the two
// flows' messages alternate.
func streamMessages(in *inputs, seq int64, dst []message) []message {
	g := int(seq & 1)
	return append(dst, message{bytes: in.size(g, seq>>1), tag: int32(g)})
}

// stream is one flow of the stream-nio workload. Sender g on rank 0
// sends windows of streamWindow messages on tag g, then waits for a
// credit; receiver g on rank 1 receives them with AnySource, sends the
// credit, and only then checks the window. One op is one message; one
// latency sample is one window, from its first send to its credit.
func stream(j *job, p *mpj.Process, f *flow, g int) error {
	in := j.in
	e, err := newEndpoint(p, maxSmall)
	if err != nil {
		return j.fail(p, err)
	}
	credit := make([]byte, 8)
	if p.Rank() == 0 {
		buf := make([]byte, maxSmall)
		in.fill(buf, g, 0, maxSmall)
		return j.chunks(f, true, func(m mode) error {
			h, tr := f.hists[m], f.spans(m)
			for k := 0; k < j.w.chunk; k++ {
				win := f.seq[0] / streamWindow
				t0 := time.Now()
				root := tr.begin(spOp, -1, win)
				var bytes int64
				for i := 0; i < streamWindow; i++ {
					seq := f.seq[0]
					f.seq[0]++
					sz := in.size(g, seq)
					in.restamp(buf, g, seq, sz)
					if err := e.send(m, buf, sz, g, tr, root, seq); err != nil {
						return j.fail(p, fmt.Errorf("flow %d msg %d: send: %w", g, seq, err))
					}
					bytes += int64(sz)
				}
				n, err := e.recv(m, credit, 8, tagCredit+g, false, tr, root, win)
				if err != nil {
					return j.fail(p, fmt.Errorf("flow %d window %d: credit: %w", g, win, err))
				}
				tr.end(root)
				h.record(int64(time.Since(t0)))
				f.ops += streamWindow
				f.bytes += bytes
				if n != 8 || leUint64(credit) != in.creditWord(g, win) {
					f.failed.Add(1)
				}
			}
			return nil
		})
	}
	bufs := make([][]byte, streamWindow)
	got := make([]int, streamWindow)
	for i := range bufs {
		bufs[i] = make([]byte, maxSmall)
	}
	return j.chunks(f, false, func(m mode) error {
		for k := 0; k < j.w.chunk; k++ {
			first := f.seq[1]
			for i := range bufs {
				seq := f.seq[1]
				f.seq[1]++
				n, err := e.recv(m, bufs[i], in.size(g, seq), g, true, nil, -1, seq)
				if err != nil {
					return j.fail(p, fmt.Errorf("flow %d msg %d: recv: %w", g, seq, err))
				}
				got[i] = n
			}
			putUint64(credit, in.creditWord(g, first/streamWindow))
			if err := e.send(m, credit, 8, tagCredit+g, nil, -1, first); err != nil {
				return j.fail(p, fmt.Errorf("flow %d: credit: %w", g, err))
			}
			for i := range bufs {
				if !in.verify(bufs[i], got[i], g, first+int64(i)) {
					f.failed.Add(1)
				}
			}
		}
		return nil
	})
}
