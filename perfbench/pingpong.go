package main

import (
	"fmt"
	"time"

	"mpj"
)

// pingpongMessages: the ping and its echo.
func pingpongMessages(in *inputs, seq int64, dst []message) []message {
	m := message{bytes: in.size(0, seq), tag: tagData}
	return append(dst, m, m)
}

// pingpong is the pingpong-smp workload: rank 0 sends each op's payload
// and rank 1 echoes it back; one op is one round trip, timed on rank 0.
// Both sides check every payload they receive, off the round trip.
func pingpong(j *job, p *mpj.Process, f *flow, _ int) error {
	in := j.in
	e, err := newEndpoint(p, maxSmall)
	if err != nil {
		return j.fail(p, err)
	}
	buf := make([]byte, maxSmall)
	if p.Rank() == 0 {
		in.fill(buf, 0, 0, maxSmall)
		echo := make([]byte, maxSmall)
		return j.chunks(f, true, func(m mode) error {
			h, tr := f.hists[m], f.spans(m)
			for k := 0; k < j.w.chunk; k++ {
				seq := f.seq[0]
				f.seq[0]++
				sz := in.size(0, seq)
				in.restamp(buf, 0, seq, sz)
				t0 := time.Now()
				root := tr.begin(spOp, -1, seq)
				if err := e.send(m, buf, sz, tagData, tr, root, seq); err != nil {
					return j.fail(p, fmt.Errorf("op %d: send: %w", seq, err))
				}
				n, err := e.recv(m, echo, sz, tagData, false, tr, root, seq)
				if err != nil {
					return j.fail(p, fmt.Errorf("op %d: recv: %w", seq, err))
				}
				tr.end(root)
				h.record(int64(time.Since(t0)))
				f.ops++
				f.bytes += 2 * int64(sz)
				if !in.verify(echo, n, 0, seq) {
					f.failed.Add(1)
				}
			}
			return nil
		})
	}
	return j.chunks(f, false, func(m mode) error {
		for k := 0; k < j.w.chunk; k++ {
			seq := f.seq[1]
			f.seq[1]++
			sz := in.size(0, seq)
			n, err := e.recv(m, buf, sz, tagData, false, nil, -1, seq)
			if err != nil {
				return j.fail(p, fmt.Errorf("op %d: recv: %w", seq, err))
			}
			// Echo first, check after: the check stays off the round trip.
			if err := e.send(m, buf, n, tagData, nil, -1, seq); err != nil {
				return j.fail(p, fmt.Errorf("op %d: echo: %w", seq, err))
			}
			if !in.verify(buf, n, 0, seq) {
				f.failed.Add(1)
			}
		}
		return nil
	})
}
