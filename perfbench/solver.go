package main

import (
	"fmt"
	"time"

	"mpj"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// solverStepBytes is the payload one step delivers: each rank receives
// its peer's 1 MiB vector and the 1 MiB Allreduce result.
const solverStepBytes = 4 * solverElems * 8

// solverMessages: the Sendrecv's vector, and the Allreduce's one
// whole-vector exchange at two ranks.
func solverMessages(_ *inputs, _ int64, dst []message) []message {
	return append(dst,
		message{bytes: solverElems * 8, double: true, tag: tagSolver},
		message{bytes: solverElems * 8, double: true, tag: tagSolver})
}

// solver is the solver-nio workload. Each step both ranks exchange
// their 1 MiB DOUBLE vectors with Sendrecv and then Allreduce them with
// SUM; one op is one step, timed on rank 0. Inputs are integer-valued,
// so the sum is exact in any fold order and is checked bit for bit,
// along with both directions of the Sendrecv.
func solver(j *job, p *mpj.Process, f *flow, _ int) error {
	in := j.in
	rank := p.Rank()
	peer := 1 - rank
	x, err := newSolverXdev(p)
	if err != nil {
		return j.fail(p, err)
	}
	world := p.World()
	recv := make([]float64, solverElems)
	out := make([]float64, solverElems)
	leader := rank == 0
	return j.chunks(f, leader, func(m mode) error {
		h, tr := f.hists[m], f.spans(m)
		if !leader {
			tr = nil
		}
		for k := 0; k < j.w.chunk; k++ {
			seq := f.seq[rank]
			f.seq[rank]++
			mine := in.solverIn(rank, seq)
			clear(recv)
			clear(out)
			t0 := time.Now()
			root := tr.begin(spOp, -1, seq)
			got := solverElems
			if m == modeXdev {
				if err := x.step(mine, recv, out); err != nil {
					return j.fail(p, fmt.Errorf("step %d: xdev: %w", seq, err))
				}
			} else {
				s := tr.begin(spCoreSendrecv, root, seq)
				st, err := world.Sendrecv(mine, 0, solverElems, mpj.DOUBLE, peer, tagSolver,
					recv, 0, solverElems, mpj.DOUBLE, peer, tagSolver)
				if err != nil {
					return j.fail(p, fmt.Errorf("step %d: sendrecv: %w", seq, err))
				}
				tr.end(s)
				got = st.Count()
				s = tr.begin(spCoreAllreduce, root, seq)
				if err := world.Allreduce(mine, 0, out, 0, solverElems, mpj.DOUBLE, mpj.SUM); err != nil {
					return j.fail(p, fmt.Errorf("step %d: allreduce: %w", seq, err))
				}
				tr.end(s)
			}
			tr.end(root)
			if leader {
				h.record(int64(time.Since(t0)))
				f.ops++
				f.bytes += solverStepBytes
			}
			if got != solverElems || !sameFloats(recv, in.solverIn(peer, seq)) || !sameFloats(out, in.solverSum(seq)) {
				f.failed.Add(1)
			}
		}
		return nil
	})
}

// solverXdev runs a solver step entered at xdev.Device: the Sendrecv as
// an IRecv/ISend pair, and the Allreduce as what the library does for
// two ranks (recursive doubling: one exchange of the whole vector, then
// the local SUM fold).
type solverXdev struct {
	dev    xdev.Device
	peer   xdev.ProcessID
	sb, rb *mpjbuf.Buffer
}

func newSolverXdev(p *mpj.Process) (*solverXdev, error) {
	id, err := p.World().Group().PID(1 - p.Rank())
	if err != nil {
		return nil, fmt.Errorf("peer id: %w", err)
	}
	return &solverXdev{
		dev: p.Device(), peer: id,
		sb: mpjbuf.New(solverElems*8 + 16), rb: mpjbuf.New(solverElems*8 + 16),
	}, nil
}

// exchange sends mine to the peer and receives the peer's vector into
// dst.
func (x *solverXdev) exchange(tag int, mine, dst []float64) error {
	x.rb.Reset()
	rr, err := x.dev.IRecv(x.rb, x.peer, tag, xdevCtx)
	if err != nil {
		return err
	}
	x.sb.Reset()
	if err := x.sb.WriteDoubles(mine, 0, len(mine)); err != nil {
		return err
	}
	if err := xwait(x.dev.ISend(x.sb, x.peer, tag, xdevCtx)); err != nil {
		return err
	}
	if _, err := rr.Wait(); err != nil {
		return err
	}
	_, err = x.rb.ReadDoubles(dst, 0, len(dst))
	return err
}

func (x *solverXdev) step(mine, recv, out []float64) error {
	if err := x.exchange(tagSolver, mine, recv); err != nil {
		return err
	}
	if err := x.exchange(tagSolver+1, mine, out); err != nil {
		return err
	}
	for i, v := range mine {
		out[i] += v
	}
	return nil
}
