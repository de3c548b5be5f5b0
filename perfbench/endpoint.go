package main

import (
	"encoding/binary"
	"fmt"

	"mpj"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

const (
	tagData   = 1
	tagCredit = 100
	tagSolver = 7
	// xdevCtx is the matching context of ops entered at xdev.Device; the
	// core layer allocates its contexts from small integers upwards.
	xdevCtx = 1 << 20
)

// endpoint moves BYTE messages between this rank and its peer, entered
// at the core API or, in modeXdev, at xdev.Device with the packing into
// mpjbuf done here. One goroutine owns an endpoint.
type endpoint struct {
	world  *mpj.Intracomm
	dev    xdev.Device
	peer   int
	peerID xdev.ProcessID
	sb, rb *mpjbuf.Buffer
}

func newEndpoint(p *mpj.Process, capacity int) (*endpoint, error) {
	peer := 1 - p.Rank()
	id, err := p.World().Group().PID(peer)
	if err != nil {
		return nil, fmt.Errorf("peer id: %w", err)
	}
	return &endpoint{
		world: p.World(), dev: p.Device(), peer: peer, peerID: id,
		sb: mpjbuf.New(capacity + 16), rb: mpjbuf.New(capacity + 16),
	}, nil
}

// send sends buf[:n] to the peer.
func (e *endpoint) send(m mode, buf []byte, n, tag int, tr *spanLog, root int32, op int64) error {
	if m == modeXdev {
		e.sb.Reset()
		if err := e.sb.WriteBytes(buf, 0, n); err != nil {
			return err
		}
		return xwait(e.dev.ISend(e.sb, e.peerID, tag, xdevCtx))
	}
	s := tr.begin(spCoreSend, root, op)
	err := e.world.Send(buf, 0, n, mpj.BYTE, e.peer, tag)
	tr.end(s)
	return err
}

// recv receives at most n bytes into buf, from the peer or, with
// anySource, from any rank, and returns how many arrived.
func (e *endpoint) recv(m mode, buf []byte, n, tag int, anySource bool, tr *spanLog, root int32, op int64) (int, error) {
	if m == modeXdev {
		src := e.peerID
		if anySource {
			src = xdev.AnySource
		}
		e.rb.Reset()
		if err := xwait(e.dev.IRecv(e.rb, src, tag, xdevCtx)); err != nil {
			return 0, err
		}
		return e.rb.ReadBytes(buf, 0, n)
	}
	src := e.peer
	if anySource {
		src = mpj.AnySource
	}
	s := tr.begin(spCoreRecv, root, op)
	st, err := e.world.Recv(buf, 0, n, mpj.BYTE, src, tag)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	return st.Count(), nil
}

// xwait completes a request started at xdev.Device.
func xwait(r xdev.Request, err error) error {
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

func leUint64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func putUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
