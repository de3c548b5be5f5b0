package niodev

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"

	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// Wire message types.
const (
	msgEager     = 1 // standard-mode eager data
	msgEagerSync = 2 // synchronous-mode eager data; receiver ACKs on match
	msgRTS       = 3 // rendezvous READY_TO_SEND
	msgRTR       = 4 // rendezvous READY_TO_RECV
	msgRndvData  = 5 // rendezvous payload
	msgAck       = 6 // eager-sync matched acknowledgement
	msgAbort     = 7 // job abort broadcast; tag carries the abort code
	msgBye       = 8 // graceful departure: the sender finished cleanly
	msgRevoke    = 9 // context revocation broadcast; ctx carries the context
)

// headerLen is the fixed wire header:
// type(1) flags(1) pad(2) src(4) tag(4) ctx(4) seq(8) wireLen(8)
// payCRC(4) hdrCRC(4).
//
// hdrCRC covers bytes [0:36) and payCRC the payload bytes, both
// CRC-32C (Castagnoli); they are computed only when the sender
// negotiated checksums in its hello (flags bit 0), and zero otherwise.
const headerLen = 40

// hdrFlagCRC marks a frame whose payCRC/hdrCRC fields are valid.
const hdrFlagCRC = 0x01

const helloMagic = 0x4d504a45 // "MPJE"

// helloFlagCRC advertises in the hello handshake that every frame on
// this connection carries CRC-32C integrity checksums. The receiver
// then treats a frame without the flag — or with a mismatching
// checksum — as corrupt.
const helloFlagCRC = 0x01

// castagnoli is the CRC-32C table shared by all frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type header struct {
	typ     uint8
	flags   uint8
	src     uint32
	tag     int32
	ctx     int32
	seq     uint64
	wireLen uint64
	payCRC  uint32
}

func (h header) encode(dst []byte) {
	dst[0] = h.typ
	dst[1] = h.flags
	dst[2], dst[3] = 0, 0
	binary.BigEndian.PutUint32(dst[4:8], h.src)
	binary.BigEndian.PutUint32(dst[8:12], uint32(h.tag))
	binary.BigEndian.PutUint32(dst[12:16], uint32(h.ctx))
	binary.BigEndian.PutUint64(dst[16:24], h.seq)
	binary.BigEndian.PutUint64(dst[24:32], h.wireLen)
	binary.BigEndian.PutUint32(dst[32:36], h.payCRC)
	var hdrCRC uint32
	if h.flags&hdrFlagCRC != 0 {
		hdrCRC = crc32.Checksum(dst[0:36], castagnoli)
	}
	binary.BigEndian.PutUint32(dst[36:40], hdrCRC)
}

func decodeHeader(src []byte) header {
	return header{
		typ:     src[0],
		flags:   src[1],
		src:     binary.BigEndian.Uint32(src[4:8]),
		tag:     int32(binary.BigEndian.Uint32(src[8:12])),
		ctx:     int32(binary.BigEndian.Uint32(src[12:16])),
		seq:     binary.BigEndian.Uint64(src[16:24]),
		wireLen: binary.BigEndian.Uint64(src[24:32]),
		payCRC:  binary.BigEndian.Uint32(src[32:36]),
	}
}

// verifyHeader checks the integrity of a raw frame header read from a
// connection whose hello negotiated checksums.
func verifyHeader(raw []byte) error {
	if raw[1]&hdrFlagCRC == 0 {
		return fmt.Errorf("niodev: frame missing negotiated checksum: %w", xdev.ErrCorruptFrame)
	}
	want := binary.BigEndian.Uint32(raw[36:40])
	if got := crc32.Checksum(raw[0:36], castagnoli); got != want {
		return fmt.Errorf("niodev: header checksum mismatch (got %#x want %#x): %w",
			got, want, xdev.ErrCorruptFrame)
	}
	return nil
}

func writeHello(c net.Conn, slot uint32, flags uint32) error {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], helloMagic)
	binary.BigEndian.PutUint32(b[4:8], slot)
	binary.BigEndian.PutUint32(b[8:12], flags)
	_, err := c.Write(b[:])
	return err
}

func readHello(c net.Conn) (slot, flags uint32, err error) {
	var b [12]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(b[0:4]) != helloMagic {
		return 0, 0, fmt.Errorf("niodev: bad hello magic")
	}
	return binary.BigEndian.Uint32(b[4:8]), binary.BigEndian.Uint32(b[8:12]), nil
}

// crcReader accumulates a CRC-32C over everything read through it, so
// payloads streamed straight into user buffers can still be verified.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	}
	return n, err
}

// payloadCRC checksums a payload's segments as one stream.
func payloadCRC(segments [][]byte) uint32 {
	var sum uint32
	for _, s := range segments {
		sum = crc32.Update(sum, castagnoli, s)
	}
	return sum
}

// writeMsg writes a header and optional payload segments to dst's write
// channel under the per-destination lock (the paper's "lock dest
// channel / send / unlock"), bypassing the send engine. Only the abort
// and revoke floods use it: their frames must reach the wire before
// shutdown poisons the engine's queues. The header comes from the
// devcore slice pool: the write is synchronous, so the slice can be
// recycled as soon as WriteTo returns.
func (d *Device) writeMsg(slot int, h header, segments [][]byte) error {
	hdr := devcore.GetSlice(headerLen)
	if d.crcOut {
		h.flags |= hdrFlagCRC
		h.payCRC = payloadCRC(segments)
	}
	h.encode(hdr)

	d.wmu[slot].Lock()
	conn := d.writeConn(slot)
	var err error
	switch {
	case conn == nil:
		err = xdev.Errf(DeviceName, "write", "no channel to slot %d", slot)
	case len(segments) == 0:
		_, err = conn.Write(hdr)
	default:
		bp := gatherPool.Get().(*net.Buffers)
		orig := append(append((*bp)[:0], hdr), segments...)
		bufs := orig
		_, err = bufs.WriteTo(conn) // consumes bufs; orig keeps the backing
		clear(orig)
		*bp = orig[:0]
		gatherPool.Put(bp)
	}
	d.wmu[slot].Unlock()
	devcore.PutSlice(hdr)
	return err
}

// gatherPool recycles the vectored-write gather lists of writeMsg so
// the steady-state frame path does not allocate. Entries are cleared
// before reuse so pooled lists do not pin payload slices.
var gatherPool = sync.Pool{New: func() any {
	b := make(net.Buffers, 0, 4)
	return &b
}}

// newFrame builds a send-engine frame for h and segments, encoding the
// header (with checksums when negotiated) into a pooled slice.
func (d *Device) newFrame(h header, segments [][]byte, req *devcore.Request, st xdev.Status) *sendFrame {
	hdr := devcore.GetSlice(headerLen)
	if d.crcOut {
		h.flags |= hdrFlagCRC
		h.payCRC = payloadCRC(segments)
	}
	h.encode(hdr)
	f := getFrame()
	f.hdr = hdr
	f.segs = append(f.segs, segments...)
	for _, s := range segments {
		f.wire += len(s)
	}
	f.req = req
	f.st = st
	return f
}

// send routes one protocol frame to slot through the send engine, the
// device's only outbound path for traffic. A may-block caller that
// finds the peer's writer role free writes its frame (plus anything
// queued) itself; otherwise the frame is enqueued for the peer's
// drainer, which coalesces it into a batch, writes, and completes req
// (if the frame carries one) with st.
//
// bounded selects backpressure: data frames from application threads
// pass true and block while the peer's queue is full; control frames
// (ACK, RTR) issued by input handlers pass false, because a handler
// blocked on its own outbound queue is the classic two-sided
// flow-control deadlock.
//
// The contract on error: req has NOT been completed, no frame was (or
// will be) written, the peer's death has already been recorded where
// the failure implies it, and the returned error is final — it
// satisfies errors.Is for xdev.ErrPeerLost (or the device-closed /
// abort shape). Callers only unwind their own registration state.
func (d *Device) send(slot int, h header, segments [][]byte, req *devcore.Request, st xdev.Status, bounded bool) error {
	e := d.engine
	q := e.queue(slot)
	if q == nil {
		return xdev.Errf(DeviceName, "send", "no queue for slot %d", slot)
	}
	f := d.newFrame(h, segments, req, st)
	var err error
	if bounded {
		err = e.sendApp(slot, q, f)
	} else {
		err = q.enqueue(f, false)
	}
	if err != nil {
		f.req = nil // caller keeps ownership on the error path
		putFrame(f)
		return err
	}
	return nil
}

// isend implements the four send modes. sync selects synchronous
// completion semantics (Ssend/ISsend).
func (d *Device) isend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int, sync bool) (*devcore.Request, error) {
	if err := d.opErr("isend"); err != nil {
		return nil, err
	}
	slot, err := d.slotOf(dst)
	if err != nil {
		return nil, err
	}
	if err := d.peerErr(slot); err != nil {
		return nil, err
	}
	if err := d.core.CtxErr(int32(context)); err != nil {
		return nil, err
	}
	req := d.core.NewRequest(devcore.SendReq, buf)
	req.OpCtx = int32(context)
	wireLen := buf.WireLen()
	if d.rec.Enabled() {
		req.Trace(int32(slot), int32(tag), int32(context))
		d.rec.Event(mpe.SendBegin, int32(slot), int32(tag), int32(context), int64(wireLen))
	}

	if slot == d.cfg.Rank {
		d.deliverSelf(buf, tag, context, sync, req)
		return req, nil
	}

	if wireLen <= d.eagerLimit {
		// Eager protocol (paper Fig. 3): write the data immediately and
		// return a non-pending request — unless synchronous, in which
		// case completion waits for the receiver's match ACK.
		typ := uint8(msgEager)
		var seq uint64
		if sync {
			typ = msgEagerSync
			seq = d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
			if err := d.pendingSync.Add(devcore.PendingKey{Peer: uint64(slot), Seq: seq}, req); err != nil {
				return nil, err // peer death or shutdown raced the gate checks
			}
		} else if d.rec.Enabled() || d.core.ReplayActive() {
			// Plain eager frames only need a seq for cross-rank trace
			// correlation and the record/replay match stamp, so the
			// counter bump is paid only when one of those is on.
			seq = d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
		}
		req.SetSeq(seq)
		if d.core.ReplayActive() {
			req.SetReplayID(int64(slot), int32(tag), int32(context), seq)
		}
		d.core.Counters.EagerSent.Add(1)
		d.core.Counters.BytesSent.Add(uint64(wireLen))
		h := header{typ: typ, src: uint32(d.cfg.Rank), tag: int32(tag), ctx: int32(context), seq: seq, wireLen: uint64(wireLen)}
		// A non-sync eager request rides the frame: whoever writes it
		// (caller or drainer) completes it once the data is on the wire,
		// and buffer ownership returns to the user at completion. A sync
		// request's completion is the receiver's ACK, so its frame
		// carries no request.
		var freq *devcore.Request
		if !sync {
			freq = req
		}
		if err := d.send(slot, h, buf.Segments(), freq, xdev.Status{Source: d.self, Tag: tag, Bytes: wireLen}, true); err != nil {
			if sync {
				if _, mine := d.pendingSync.Take(devcore.PendingKey{Peer: uint64(slot), Seq: seq}); !mine {
					// The peer-death drain already owned and completed
					// this request; hand it back so Wait reports that.
					return req, nil
				}
			}
			return nil, err
		}
		if d.rec.Enabled() {
			d.rec.EventSeq(mpe.EagerOut, int32(slot), int32(tag), int32(context), int64(wireLen), seq)
		}
		return req, nil
	}

	// Rendezvous protocol (paper Fig. 6): register the pending send,
	// then announce with READY_TO_SEND. The core lock and the
	// destination channel lock are taken one after the other, never
	// nested, so sends to other destinations don't block.
	d.core.Counters.RndvSent.Add(1)
	d.core.Counters.BytesSent.Add(uint64(wireLen))
	seq := d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
	req.SetSeq(seq)
	if d.core.ReplayActive() {
		req.SetReplayID(int64(slot), int32(tag), int32(context), seq)
	}
	req.SendTag, req.SendCtx = int32(tag), int32(context)
	if err := d.pendingRndv.Add(devcore.PendingKey{Peer: uint64(slot), Seq: seq}, req); err != nil {
		return nil, err // peer death or shutdown raced the gate checks
	}
	h := header{typ: msgRTS, src: uint32(d.cfg.Rank), tag: int32(tag), ctx: int32(context), seq: seq, wireLen: uint64(wireLen)}
	if err := d.send(slot, h, nil, nil, xdev.Status{}, true); err != nil {
		if _, mine := d.pendingRndv.Take(devcore.PendingKey{Peer: uint64(slot), Seq: seq}); !mine {
			return req, nil // completed by the peer-death drain
		}
		return nil, err
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.RendezvousRTS, int32(slot), int32(tag), int32(context), int64(wireLen), seq)
	}
	return req, nil
}

// ISend starts a standard-mode non-blocking send.
func (d *Device) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, false)
}

// Send is the blocking standard-mode send.
func (d *Device) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, false)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// ISsend starts a synchronous-mode non-blocking send.
func (d *Device) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, true)
}

// Ssend is the blocking synchronous-mode send.
func (d *Device) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, true)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// deliverSelf routes a send whose destination is this process through
// the matching engine without touching the network.
func (d *Device) deliverSelf(buf *mpjbuf.Buffer, tag, context int, sync bool, sreq *devcore.Request) {
	env := match.Concrete{Ctx: int32(context), Tag: int32(tag), Src: uint64(d.cfg.Rank)}
	st := xdev.Status{Source: d.self, Tag: tag, Bytes: buf.WireLen()}
	d.core.Counters.EagerSent.Add(1)
	d.core.Counters.BytesSent.Add(uint64(buf.WireLen()))

	var seq uint64
	if d.rec.Enabled() || d.core.ReplayActive() {
		seq = d.core.NextSeqSend(uint64(d.cfg.Rank), int32(context), int32(tag))
		sreq.SetSeq(seq)
	}
	if d.core.ReplayActive() {
		sreq.SetReplayID(int64(d.cfg.Rank), int32(tag), int32(context), seq)
	}
	arr := &devcore.Arrival{
		Src: uint64(d.cfg.Rank), Tag: int32(tag), Ctx: int32(context),
		Seq: seq, WireLen: buf.WireLen(), Data: devcore.WireCopy(buf),
	}
	if sync {
		arr.SyncReq = sreq
	}
	rreq, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		// Shutdown or abort raced the isend gate: nothing parked, so the
		// sender completes with the failure instead of hanging.
		devcore.PutSlice(arr.Data)
		if ferr := d.opErr("isend"); ferr != nil {
			err = ferr
		}
		sreq.Complete(xdev.Status{}, err)
		return
	}
	if matched {
		loadErr := rreq.Buf.LoadWire(arr.Data)
		devcore.PutSlice(arr.Data)
		rreq.Complete(st, loadErr)
		sreq.Complete(st, nil)
		return
	}
	if !sync {
		sreq.Complete(st, nil)
	}
}

func (d *Device) pattern(src xdev.ProcessID, tag, context int) (match.Pattern, error) {
	p := match.Pattern{Ctx: int32(context)}
	if tag == xdev.AnyTag {
		p.Tag = match.AnyTag
	} else {
		p.Tag = int32(tag)
	}
	if src.IsAnySource() {
		p.Src = match.AnySource
	} else {
		slot, err := d.slotOf(src)
		if err != nil {
			return p, err
		}
		p.Src = uint64(slot)
	}
	return p, nil
}

// IRecv posts a non-blocking receive (paper Figs. 4 and 7). If an
// unexpected message already matches, it is consumed immediately;
// otherwise the request joins the pending-recv-request-set.
//
// A receive pinned to a peer already known dead fails fast with the
// peer's death error — unless a matching message arrived before the
// peer died, which is still delivered. ANY_SOURCE receives stay posted
// as long as any peer could satisfy them.
func (d *Device) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.opErr("irecv"); err != nil {
		return nil, err
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return nil, err
	}
	req := d.core.NewRequest(devcore.RecvReq, buf)
	req.OpCtx = int32(context)
	if d.rec.Enabled() {
		peer := int32(-1)
		if !src.IsAnySource() {
			peer = int32(p.Src)
		}
		req.Trace(peer, int32(tag), int32(context))
		d.rec.Event(mpe.RecvPosted, peer, int32(tag), int32(context), 0)
	}
	if err := d.irecvReq(req, p); err != nil {
		return nil, err
	}
	return req, nil
}

// irecvReq is the post-creation half of IRecv: it posts req under the
// pattern, or consumes a matching parked arrival — answering a
// rendezvous announcement with READY_TO_RECV, or delivering a buffered
// eager payload. A nil return means the request's lifecycle is now in
// the core's hands (posted, or already completed, possibly with a
// recorded failure); a non-nil return means nothing happened to req
// (devcore.ErrClaimed: a dual-posted request was won by the other core
// first).
func (d *Device) irecvReq(req *devcore.Request, p match.Pattern) error {
	buf := req.Buf
	arr, err := d.core.PostRecv(p, req, nil)
	if err != nil {
		return err
	}
	if arr == nil {
		return nil // posted; an arrival or drain completes it
	}
	if arr.Rndv {
		// Rendezvous announced but unmatched until now: the user thread
		// (not the input handler) sends READY_TO_RECV, per Fig. 7.
		k := devcore.PendingKey{Peer: arr.Src, Seq: arr.Seq}
		if err := d.rndvIncoming.Add(k, req); err != nil {
			// The announcing peer died (or the device closed) between the
			// match and the registration; fail the receive the same way
			// the drain would have.
			req.Complete(xdev.Status{}, err)
			return nil
		}
		h := header{typ: msgRTR, src: uint32(d.cfg.Rank), seq: arr.Seq}
		if err := d.send(int(arr.Src), h, nil, nil, xdev.Status{}, false); err != nil {
			if _, mine := d.rndvIncoming.Take(k); !mine {
				return nil // completed by the peer-death drain
			}
			req.Complete(xdev.Status{}, &xdev.Error{Dev: DeviceName, Op: "rendezvous RTR", Err: err})
			return nil
		}
		if d.rec.Enabled() {
			d.rec.EventSeq(mpe.RendezvousRTR, int32(arr.Src), arr.Tag, arr.Ctx, int64(arr.WireLen), arr.Seq)
		}
		return nil
	}

	// Buffered eager message: copy from the device-level input buffer
	// into the user buffer (Fig. 4), recycling the staging slice.
	st := xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}
	loadErr := buf.LoadWire(arr.Data)
	devcore.PutSlice(arr.Data)
	arr.Data = nil
	switch {
	case arr.SyncReq != nil:
		arr.SyncReq.Complete(st, nil) // self synchronous sender
	case arr.Sync:
		h := header{typ: msgAck, src: uint32(d.cfg.Rank), seq: arr.Seq}
		if err := d.send(int(arr.Src), h, nil, nil, xdev.Status{}, false); err != nil {
			req.Complete(st, err)
			return nil
		}
	}
	req.Complete(st, loadErr)
	return nil
}

// PostRecvReq posts a receive on an externally created request — the
// composition hook hybriddev uses to dual-post one ANY_SOURCE request
// into this device and its shared-memory sibling. The caller owns
// request creation and tracing; rendezvous and eager delivery behave
// exactly as in IRecv. Returns devcore.ErrClaimed when the sibling
// core won the request before this device could act (req untouched).
func (d *Device) PostRecvReq(req *devcore.Request, src xdev.ProcessID, tag, context int) error {
	if err := d.opErr("irecv"); err != nil {
		return err
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return err
	}
	req.OpCtx = int32(context)
	return d.irecvReq(req, p)
}

// Core exposes the device's progress core for composition (hybriddev's
// shared completion queue and notification hooks).
func (d *Device) Core() *devcore.Core { return d.core }

// Recv blocks until a matching message has been received.
func (d *Device) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	r, err := d.IRecv(buf, src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	return r.Wait()
}

// IProbe checks for a matching available message without receiving it.
func (d *Device) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, false, err
	}
	arr, err := d.core.IProbe(p, "iprobe")
	if err != nil {
		return xdev.Status{}, false, err
	}
	if arr == nil {
		return xdev.Status{}, false, nil
	}
	return xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}, true, nil
}

// Probe blocks until a matching message is available. It fails instead
// of blocking forever when the device closes, the job aborts, or a
// pinned source dies with no buffered match left.
func (d *Device) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	arr, err := d.core.Probe(p, "probe")
	if err != nil {
		return xdev.Status{}, err
	}
	return xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}, nil
}

// inputHandler is the progress engine for one inbound connection (read
// channel) from peer slot src. It mirrors the paper's input-handler
// pseudocode (Figs. 5 and 8): it must never block on anything except
// reading its own channel, so rendezvous data sends are forked onto
// their own goroutines.
//
// When the loop exits on an error while the device is still live, the
// peer is declared dead: its pending requests fail with ErrPeerLost
// and blocked waiters wake (the failure-detection half of the device).
func (d *Device) inputHandler(conn net.Conn, src uint32, crc bool) {
	// Inbound frames are read through a buffered reader sized to the
	// send engine's batch cap: a coalesced batch from the peer arrives
	// in one (or few) bulk reads instead of two reads per frame, the
	// receive-side mirror of the vectored batch write. Payload reads at
	// or above the buffer size bypass it (bufio passes large reads
	// straight through when its buffer is empty), so rendezvous bulk
	// data still streams zero-copy into user buffers.
	err := d.readLoop(bufio.NewReaderSize(conn, 64<<10), src, crc)
	conn.Close()
	if err != nil && !d.closed.Load() {
		d.markPeerDead(int(src), err)
	}
}

func (d *Device) readLoop(conn io.Reader, src uint32, crc bool) error {
	hdr := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return err // connection closed (Finish, abort, or peer exit)
		}
		if crc {
			if err := verifyHeader(hdr); err != nil {
				d.noteCorrupt(src, err)
				return err
			}
		}
		h := decodeHeader(hdr)
		switch h.typ {
		case msgEager, msgEagerSync:
			if err := d.handleEager(conn, h, crc); err != nil {
				return err
			}
		case msgRTS:
			d.handleRTS(h)
		case msgRTR:
			d.handleRTR(h)
		case msgRndvData:
			if err := d.handleRndvData(conn, h, crc); err != nil {
				return err
			}
		case msgAck:
			d.handleAck(h)
		case msgAbort:
			d.handleAbort(h)
			return nil // device is tearing down; the conn is closing
		case msgRevoke:
			d.handleRevoke(h)
		case msgBye:
			// Graceful departure: the peer finished cleanly. Requests
			// pinned on it fail the same way as on a crash (it can no
			// longer complete anything), but this is not a failure —
			// no PeersLost accounting.
			d.markPeerGone(int(src), fmt.Errorf("niodev: peer %d finished", src), true)
			return nil
		default:
			// Protocol error: drop the connection.
			return fmt.Errorf("niodev: unknown message type %d from slot %d", h.typ, src)
		}
	}
}

// noteCorrupt records a frame rejected by the integrity check.
func (d *Device) noteCorrupt(src uint32, err error) {
	d.core.Counters.FramesCorrupt.Add(1)
	if d.rec.Enabled() {
		d.rec.Event(mpe.FrameCorrupt, int32(src), -1, -1, 0)
	}
	_ = err
}

// checkPayload verifies a streamed payload's CRC after the read.
func checkPayload(crc bool, sum uint32, h header) error {
	if !crc || sum == h.payCRC {
		return nil
	}
	return fmt.Errorf("niodev: payload checksum mismatch (got %#x want %#x): %w",
		sum, h.payCRC, xdev.ErrCorruptFrame)
}

func (d *Device) handleEager(conn io.Reader, h header, crc bool) error {
	env := match.Concrete{Ctx: h.ctx, Tag: h.tag, Src: uint64(h.src)}
	st := xdev.Status{Source: d.pids[h.src], Tag: int(h.tag), Bytes: int(h.wireLen)}

	if req, ok := d.core.MatchPosted(env, h.seq); ok {
		// Matched: receive directly into the user buffer (Fig. 5). The
		// crcReader checksums the stream on the way through so even the
		// zero-copy path is integrity checked.
		cr := &crcReader{r: conn}
		err := req.Buf.LoadWireFrom(cr, int(h.wireLen))
		if err == nil {
			err = checkPayload(crc, cr.sum, h)
			if err != nil {
				d.noteCorrupt(h.src, err)
			}
		}
		if err != nil {
			// Torn or corrupt frame: the peer is about to be declared
			// dead (the read loop exits on the returned error), so this
			// receive fails in the same peer-lost shape.
			err = d.peerLost(int(h.src), err)
		} else if h.typ == msgEagerSync {
			// The matched-sync ACK is piggybacked: it joins the next
			// coalesced batch to h.src instead of paying its own write.
			if ackErr := d.send(int(h.src), header{typ: msgAck, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false); ackErr != nil {
				err = ackErr
			}
		}
		req.Complete(st, err)
		if err != nil {
			return err
		}
		return nil
	}
	// Unmatched: receive into a pooled device input buffer (the eager
	// protocol's unlimited-device-memory assumption). The core lock is
	// not held across the network read — other connections' matching
	// must proceed while this payload drains — so MatchOrPark retries
	// the match afterwards in case a receive was posted meanwhile.
	data := devcore.GetSlice(int(h.wireLen))
	if _, err := io.ReadFull(conn, data); err != nil {
		devcore.PutSlice(data)
		return err
	}
	if err := checkPayload(crc, crc32.Checksum(data, castagnoli), h); err != nil {
		devcore.PutSlice(data)
		d.noteCorrupt(h.src, err)
		return err
	}
	arr := &devcore.Arrival{
		Src: uint64(h.src), Tag: h.tag, Ctx: h.ctx, Seq: h.seq,
		WireLen: int(h.wireLen), Sync: h.typ == msgEagerSync, Data: data,
	}
	req, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		// Device closing: drop the message; the sender learns of our
		// departure through its own failure detection.
		devcore.PutSlice(data)
		return nil
	}
	if matched {
		loadErr := req.Buf.LoadWire(data)
		devcore.PutSlice(data)
		if h.typ == msgEagerSync {
			ackErr := d.send(int(h.src), header{typ: msgAck, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false)
			if loadErr == nil {
				loadErr = ackErr
			}
		}
		req.Complete(st, loadErr)
	}
	return nil
}

func (d *Device) handleRTS(h header) {
	env := match.Concrete{Ctx: h.ctx, Tag: h.tag, Src: uint64(h.src)}
	arr := &devcore.Arrival{
		Src: uint64(h.src), Tag: h.tag, Ctx: h.ctx, Seq: h.seq,
		WireLen: int(h.wireLen), Rndv: true,
	}
	req, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		return // closing; the announcing sender fails via peer death
	}
	if !matched {
		return // parked; a future receive answers the RTS
	}
	// Matched: the input handler answers READY_TO_RECV (Fig. 8).
	k := devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq}
	if err := d.rndvIncoming.Add(k, req); err != nil {
		req.Complete(xdev.Status{}, err)
		return
	}
	if err := d.send(int(h.src), header{typ: msgRTR, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false); err != nil {
		if _, mine := d.rndvIncoming.Take(k); mine {
			req.Complete(xdev.Status{}, err)
		}
		return
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.RendezvousRTR, int32(h.src), h.tag, h.ctx, int64(h.wireLen), h.seq)
	}
}

func (d *Device) handleRTR(h header) {
	req, ok := d.pendingRndv.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		return // duplicate, or drained by peer death / shutdown
	}
	// Fork a rendezvous writer so the input handler never blocks on a
	// bulk write or a full send queue — otherwise two processes
	// simultaneously sending large messages to each other could
	// deadlock (paper §IV-A.2).
	dst := int(h.src)
	d.handlerWG.Add(1)
	go func() {
		defer d.handlerWG.Done()
		wireLen := req.Buf.WireLen()
		dh := header{
			typ: msgRndvData, src: uint32(d.cfg.Rank),
			tag: req.SendTag, ctx: req.SendCtx,
			seq: h.seq, wireLen: uint64(wireLen),
		}
		// The frame carries the request: whoever writes it completes it
		// once the payload is on the wire.
		st := xdev.Status{Source: d.self, Bytes: wireLen}
		if err := d.send(dst, dh, req.Buf.Segments(), req, st, true); err != nil {
			req.Complete(xdev.Status{}, err)
			return
		}
		if d.rec.Enabled() {
			d.rec.EventSeq(mpe.RendezvousData, int32(dst), req.SendTag, req.SendCtx, int64(wireLen), h.seq)
		}
	}()
}

func (d *Device) handleRndvData(conn io.Reader, h header, crc bool) error {
	req, ok := d.rndvIncoming.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		// Protocol violation: data for an unknown rendezvous.
		return fmt.Errorf("niodev: rendezvous data for unknown seq %d from slot %d", h.seq, h.src)
	}
	cr := &crcReader{r: conn}
	err := req.Buf.LoadWireFrom(cr, int(h.wireLen))
	if err == nil {
		err = checkPayload(crc, cr.sum, h)
		if err != nil {
			d.noteCorrupt(h.src, err)
		}
	}
	if err != nil {
		// The rendezvous data stream died or failed its checksum: the
		// read loop exits on the returned error and declares the peer
		// dead, so the waiting receive fails in the same shape.
		err = d.peerLost(int(h.src), err)
	}
	req.Complete(xdev.Status{Source: d.pids[h.src], Tag: int(h.tag), Bytes: int(h.wireLen)}, err)
	return err
}

func (d *Device) handleAck(h header) {
	req, ok := d.pendingSync.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		return
	}
	req.Complete(xdev.Status{Source: d.self, Bytes: req.Buf.WireLen()}, nil)
}
