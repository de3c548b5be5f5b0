package niodev

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/xdev"
)

// This file is the device's one outbound path for wire traffic. The
// paper's send is "lock dest channel / send / unlock"; done naively it
// serializes every concurrent sender on a mutex held across a syscall
// while paying one wire write per frame. The send engine keeps that
// shape when it is cheap and coalesces when it is not: a sender that
// finds the peer's writer role free takes it and writes its own frame
// plus anything queued (caller-runs); otherwise it enqueues on a
// bounded per-peer MPSC queue and returns, and a per-peer drainer
// goroutine coalesces everything queued — eager payloads, ACKs, RTRs,
// rendezvous data — into a single wire write, amortizing the syscall
// (and, on the in-process transport, the ring-buffer lock round) over
// the whole batch. Ibdxnet applies the same shape to InfiniBand:
// per-connection send queues drained by a dedicated provider thread
// with adaptive busy-poll/park progress.
//
// Invariants:
//
//   - Ordering: frames to one peer go out in enqueue order — the queue
//     is FIFO and exactly one writer (caller or drainer) holds the
//     take+write role at a time — so MPI's non-overtaking guarantee
//     per (src,dst) holds.
//   - Backpressure: data frames block once the queue holds
//     DefaultSendQueue frames, bounding memory; control frames (ACK,
//     RTR) enqueue unbounded because an input handler must never block
//     on its own outbound queue (the two-sided flow-control deadlock).
//   - Completion: a frame carrying a request completes it after the
//     frame is on the wire, never before — buffer ownership transfers
//     at completion.
//   - Failure: poisoning a queue (peer death, revoked conn, Finish)
//     wakes blocked enqueuers with the death error and fails every
//     queued frame's request; no frame is silently dropped.

// Send-engine sizing and progress constants. None is an option: no
// other setting won a benchmark row (DESIGN §12).
const (
	// DefaultSendQueue is the per-peer queue bound in frames.
	DefaultSendQueue = 256
	// DefaultSendSpin is how many scheduler yields a drainer busy-polls
	// for new frames after going idle before parking on its condition
	// variable. Spinning wins when traffic is hot (the next frame
	// arrives within a few microseconds); parking keeps idle peers
	// free.
	DefaultSendSpin = 512

	// maxBatchFrames caps the frames coalesced into one wire write, and
	// maxBatchBytes the bytes, bounding both the gather list and the
	// latency a queued frame can hide behind a giant batch.
	maxBatchFrames = 64
	maxBatchBytes  = 1 << 20

	// stageSegMax is the payload-segment size below which the drainer
	// memcpys the segment into its staging buffer instead of adding a
	// gather entry. A batch of small messages then becomes exactly one
	// contiguous Write — one syscall on TCP, one ring-buffer round on
	// the in-process pipe — while large segments are still written
	// zero-copy from the user's buffer.
	stageSegMax = 4 << 10

	// goodbyeFlush bounds how long Finish waits for the drainers to
	// flush queued frames (and the closing bye behind them) before the
	// connections are torn down regardless.
	goodbyeFlush = 500 * time.Millisecond
)

// sendFrame is one queued wire message: the encoded header, the
// payload segments (owned by the sending request's buffer until
// completion), and optionally the request the wire write completes.
type sendFrame struct {
	hdr  []byte   // encoded headerLen bytes from the devcore slice pool
	segs [][]byte // payload segments; nil for control frames
	wire int      // total payload bytes (header excluded)

	// req, when non-nil, is completed with st once the frame is on the
	// wire (or with the peer's death error if it never gets there).
	// Control frames and protocol exchanges whose completion is a
	// *reply* (sync-send ACK, rendezvous RTR) leave it nil: their
	// requests live in core-registered pending sets that the failure
	// drains cover.
	req *devcore.Request
	st  xdev.Status
}

var framePool = sync.Pool{New: func() any { return new(sendFrame) }}

func getFrame() *sendFrame { return framePool.Get().(*sendFrame) }

func putFrame(f *sendFrame) {
	devcore.PutSlice(f.hdr)
	f.hdr = nil
	clear(f.segs)
	f.segs = f.segs[:0]
	f.wire = 0
	f.req = nil
	f.st = xdev.Status{}
	framePool.Put(f)
}

// peerQueue is the bounded MPSC frame queue feeding one peer's
// drainer: finely locked (one short critical section per operation,
// never held across I/O), FIFO, with poison-on-failure semantics.
type peerQueue struct {
	mu    sync.Mutex
	ready *sync.Cond // drainer parks here when the queue is empty
	space *sync.Cond // bounded enqueuers park here when it is full

	frames []*sendFrame
	head   int
	limit  int

	// depth mirrors the queue length so the drainer's busy-poll phase
	// can check for work without bouncing the lock.
	depth atomic.Int64

	err     error // poison: peer dead or device down; enqueue fails with it
	closing bool  // graceful close: drain what is queued, accept no more
	busy    bool  // drainer is mid-batch (frames in flight, not in the queue)
	writer  bool  // an inline (caller-runs) writer holds the take+write role

	// waiting marks the drainer parked on ready, and spaceWaiters
	// counts enqueuers parked on space, so the opposite side only pays
	// a futex wake when someone is actually parked — enqueues while
	// the drainer is busy writing (the common hot-path case) and batch
	// takes with no blocked sender are signal-free.
	waiting      bool
	spaceWaiters int
}

func newPeerQueue(limit int) *peerQueue {
	q := &peerQueue{limit: limit}
	q.ready = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

func (q *peerQueue) len() int { return len(q.frames) - q.head }

// enqueue appends f. Bounded enqueues block while the queue is at its
// limit — the backpressure that keeps a fast sender from buffering
// unbounded frames — and are woken by the drainer or by poison.
func (q *peerQueue) enqueue(f *sendFrame, bounded bool) error {
	q.mu.Lock()
	if bounded {
		for q.err == nil && !q.closing && q.len() >= q.limit {
			q.spaceWaiters++
			q.space.Wait()
			q.spaceWaiters--
		}
	}
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		return err
	}
	if q.closing {
		q.mu.Unlock()
		return ErrDeviceClosed
	}
	q.frames = append(q.frames, f)
	q.depth.Store(int64(q.len()))
	if q.waiting {
		q.ready.Signal()
	}
	q.mu.Unlock()
	return nil
}

// takeBatch pops up to maxBatchFrames / maxBatchBytes frames into dst,
// blocking while the queue is empty. An empty return means the queue
// is poisoned or closing and fully drained: the drainer exits.
//
// The empty-queue wait is adaptive: the drainer first busy-polls
// (DefaultSendSpin scheduler yields, checking the lock-free depth
// mirror) so a hot sender's next frame is picked up without a futex
// round trip, then parks on the condition variable until signaled.
func (q *peerQueue) takeBatch(dst []*sendFrame) []*sendFrame {
	q.mu.Lock()
	q.busy = false
	for {
		if q.writer {
			// An inline writer owns take+write; taking now would let
			// this batch overtake the frames it is writing. Park — the
			// writer signals on release when frames remain.
			q.waiting = true
			q.ready.Wait()
			q.waiting = false
			continue
		}
		if q.head < len(q.frames) {
			bytes := 0
			for q.head < len(q.frames) && len(dst) < maxBatchFrames {
				f := q.frames[q.head]
				if len(dst) > 0 && bytes+headerLen+f.wire > maxBatchBytes {
					break
				}
				dst = append(dst, f)
				bytes += headerLen + f.wire
				q.frames[q.head] = nil
				q.head++
			}
			if q.head == len(q.frames) {
				q.frames = q.frames[:0]
				q.head = 0
			}
			q.depth.Store(int64(q.len()))
			q.busy = true
			if q.spaceWaiters > 0 {
				q.space.Broadcast()
			}
			q.mu.Unlock()
			return dst
		}
		if q.err != nil || q.closing {
			q.mu.Unlock()
			return dst[:0]
		}
		q.mu.Unlock()
		for i := 0; i < DefaultSendSpin && q.depth.Load() == 0; i++ {
			runtime.Gosched()
		}
		q.mu.Lock()
		if q.head < len(q.frames) || q.err != nil || q.closing {
			continue
		}
		q.waiting = true
		q.ready.Wait()
		q.waiting = false
	}
}

// poison fails the queue with err: every blocked enqueuer wakes and
// fails, future enqueues fail fast, the drainer exits once its current
// batch is done, and the frames still queued are returned so the
// caller can fail their requests. Idempotent; the first error sticks.
func (q *peerQueue) poison(err error) []*sendFrame {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	drained := append([]*sendFrame(nil), q.frames[q.head:]...)
	clear(q.frames)
	q.frames, q.head = q.frames[:0], 0
	q.depth.Store(0)
	q.ready.Broadcast()
	q.space.Broadcast()
	q.mu.Unlock()
	return drained
}

// closeWith marks the queue closing and, when accepted, appends final
// behind everything already queued — how Finish orders the goodbye
// frame after every data frame (flush-on-finalize). Returns false if
// the queue was already poisoned or closing (final was not taken).
func (q *peerQueue) closeWith(final *sendFrame) bool {
	q.mu.Lock()
	defer func() {
		q.ready.Broadcast()
		q.space.Broadcast()
		q.mu.Unlock()
	}()
	if q.err != nil || q.closing {
		q.closing = true
		return false
	}
	q.closing = true
	if final != nil {
		q.frames = append(q.frames, final)
		q.depth.Store(int64(q.len()))
	}
	return true
}

// waitIdle blocks until the queue is empty with no batch in flight,
// the queue is poisoned, or the deadline passes; it reports whether
// the queue really drained. sync.Cond has no timed wait and this only
// runs on the Finish path, so a short poll is the simplest correct
// implementation.
func (q *peerQueue) waitIdle(deadline time.Time) bool {
	for {
		q.mu.Lock()
		idle := q.head == len(q.frames) && !q.busy && !q.writer
		poisoned := q.err != nil
		q.mu.Unlock()
		if idle || poisoned {
			return idle
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sendEngine owns one peerQueue and one drainer goroutine per peer.
type sendEngine struct {
	d  *Device
	qs []*peerQueue // indexed by slot; nil for self

	// batchHist counts completed batches by frames-per-batch bucket:
	// bucket i holds batches of [2^i, 2^(i+1)) frames. The coalescing
	// ratio it exposes is the engine's whole point, so it is kept even
	// without tracing.
	batchHist [8]atomic.Uint64
}

func newSendEngine(d *Device) *sendEngine {
	e := &sendEngine{d: d, qs: make([]*peerQueue, d.cfg.Size)}
	for slot := range e.qs {
		if slot != d.cfg.Rank {
			e.qs[slot] = newPeerQueue(DefaultSendQueue)
		}
	}
	return e
}

// start launches the per-peer drainers; they are counted on handlerWG
// so shutdown(wait=true) joins them.
func (e *sendEngine) start() {
	for slot, q := range e.qs {
		if q == nil {
			continue
		}
		e.d.handlerWG.Add(1)
		go e.drain(slot)
	}
}

// queue returns the peer's queue, or nil for self/out-of-range slots.
func (e *sendEngine) queue(slot int) *peerQueue {
	if slot < 0 || slot >= len(e.qs) {
		return nil
	}
	return e.qs[slot]
}

// depth reports the peer's current queue depth for introspection.
func (e *sendEngine) depthOf(slot int) int {
	if q := e.queue(slot); q != nil {
		return int(q.depth.Load())
	}
	return 0
}

// histSnapshot copies the frames-per-batch histogram (bucket i counts
// batches of 2^i..2^(i+1)-1 frames; the last bucket is open-ended).
func (e *sendEngine) histSnapshot() []uint64 {
	out := make([]uint64, len(e.batchHist))
	for i := range e.batchHist {
		out[i] = e.batchHist[i].Load()
	}
	return out
}

// failQueued poisons slot's queue with err and fails every queued
// frame's request with it. Called by the peer-death path; idempotent.
func (e *sendEngine) failQueued(slot int, err error) {
	q := e.queue(slot)
	if q == nil {
		return
	}
	e.completeFrames(q.poison(err), err)
}

// stop poisons every queue — device shutdown: blocked enqueuers wake,
// queued frames fail, drainers exit after their in-flight batch.
func (e *sendEngine) stop(err error) {
	for slot, q := range e.qs {
		if q != nil {
			e.failQueued(slot, err)
		}
	}
}

// completeFrames finishes a batch: on success every frame carrying a
// request completes with its status; on failure with err. Frames and
// their pooled headers are recycled either way.
func (e *sendEngine) completeFrames(batch []*sendFrame, err error) {
	for _, f := range batch {
		if f.req != nil {
			if err != nil {
				f.req.Complete(xdev.Status{}, err)
			} else {
				f.req.Complete(f.st, nil)
			}
		}
		putFrame(f)
	}
}

// inlineBuf is the reusable scratch (batch list, staging buffer,
// gather list) for one inline write, pooled so the caller-runs fast
// path allocates nothing in steady state.
type inlineBuf struct {
	batch   []*sendFrame
	staging []byte
	gather  net.Buffers
}

var inlinePool = sync.Pool{New: func() any {
	return &inlineBuf{batch: make([]*sendFrame, 0, maxBatchFrames)}
}}

// sendApp submits an app-thread frame: flat combining. If no writer
// (inline or drainer batch take) is in flight and everything queued
// fits one batch, the calling goroutine becomes the peer's writer — it
// takes the queued frames, appends its own, and issues the wire write
// itself. That keeps the paper's lock-send-unlock latency (no drainer
// wake, no completion handoff) while still coalescing whatever other
// senders queued meanwhile; under contention or when the queue is deep
// it degrades gracefully to a plain bounded enqueue for the drainer.
// Only may-block threads use this — input handlers always enqueue
// (§IV-A.2: a handler must never block on a wire write).
func (e *sendEngine) sendApp(slot int, q *peerQueue, f *sendFrame) error {
	q.mu.Lock()
	if q.err != nil || q.closing || q.writer || q.len()+1 > maxBatchFrames {
		q.mu.Unlock()
		return q.enqueue(f, true)
	}
	bytes := 0
	for i := q.head; i < len(q.frames); i++ {
		bytes += headerLen + q.frames[i].wire
	}
	if q.head < len(q.frames) && bytes+headerLen+f.wire > maxBatchBytes {
		q.mu.Unlock()
		return q.enqueue(f, true)
	}
	ib := inlinePool.Get().(*inlineBuf)
	batch := ib.batch[:0]
	for i := q.head; i < len(q.frames); i++ {
		batch = append(batch, q.frames[i])
		q.frames[i] = nil
	}
	q.frames, q.head = q.frames[:0], 0
	batch = append(batch, f)
	q.depth.Store(0)
	q.writer = true
	if q.spaceWaiters > 0 {
		q.space.Broadcast()
	}
	q.mu.Unlock()

	err := e.writeBatch(slot, batch, &ib.staging, &ib.gather)
	if err != nil {
		e.completeFrames(batch, e.d.peerLost(slot, err))
		e.d.markPeerDead(slot, err)
	} else {
		e.completeFrames(batch, nil)
	}
	ib.batch = batch[:0]
	inlinePool.Put(ib)

	q.mu.Lock()
	q.writer = false
	if q.head < len(q.frames) && q.waiting {
		q.ready.Signal()
	}
	q.mu.Unlock()
	// The frame was accepted: a wire failure completes its request via
	// the failure path (exactly as a drainer write failure would), so
	// the caller must not unwind.
	return nil
}

// compBatch is one written (or failed) batch handed from a drainer to
// its completer: frames to complete, and the final error if the wire
// write failed.
type compBatch struct {
	frames []*sendFrame
	err    error
}

// compPipeline is how many written batches may await completion before
// the drainer blocks handing off the next one.
const compPipeline = 4

// drain is the progress loop for one peer: batch, write, hand off,
// repeat. Completions are pipelined onto a dedicated completer
// goroutine so the drainer's serial path is just batching and the wire
// write — a batch's completion wakes overlap the next batch's write.
// The completer is single and FIFO, so requests complete in wire
// order. On a write error the peer is declared dead — which poisons
// the queue — and the loop exits once the queue reports empty.
func (e *sendEngine) drain(slot int) {
	defer e.d.handlerWG.Done()
	q := e.qs[slot]
	comp := make(chan compBatch, compPipeline)
	// free recycles batch backing slices between the two goroutines so
	// the steady state allocates nothing.
	free := make(chan []*sendFrame, compPipeline+1)
	e.d.handlerWG.Add(1)
	go e.complete(comp, free)
	defer close(comp)
	var staging []byte
	var gather net.Buffers
	for {
		var batch []*sendFrame
		select {
		case batch = <-free:
			batch = batch[:0]
		default:
			batch = make([]*sendFrame, 0, maxBatchFrames)
		}
		batch = q.takeBatch(batch)
		if len(batch) == 0 {
			return
		}
		err := e.writeBatch(slot, batch, &staging, &gather)
		if err != nil {
			comp <- compBatch{frames: batch, err: e.d.peerLost(slot, err)}
			// Declaring the peer dead poisons this queue, so the next
			// takeBatch drains to empty and the loop exits.
			e.d.markPeerDead(slot, err)
			continue
		}
		comp <- compBatch{frames: batch}
	}
}

// complete is the completer half of one peer's drain pipeline: it
// finishes handed-off batches in order until the drainer closes the
// channel, then exits — shutdown joins it via handlerWG, so no written
// frame's request is left pending when Finish returns.
func (e *sendEngine) complete(comp chan compBatch, free chan []*sendFrame) {
	defer e.d.handlerWG.Done()
	for cb := range comp {
		e.completeFrames(cb.frames, cb.err)
		select {
		case free <- cb.frames[:0]:
		default:
		}
	}
}

// writeBatch coalesces the batch into one wire write: headers and
// small payload segments are copied into the staging buffer, large
// segments are referenced zero-copy, and the resulting gather list —
// often a single contiguous run — goes out under the per-destination
// lock in one Write/writev.
func (e *sendEngine) writeBatch(slot int, batch []*sendFrame, staging *[]byte, gather *net.Buffers) error {
	// Pre-size the staging area so appends cannot reallocate under the
	// gather entries that alias it.
	staged, total := 0, 0
	for _, f := range batch {
		staged += headerLen
		total += headerLen + f.wire
		for _, s := range f.segs {
			if len(s) < stageSegMax {
				staged += len(s)
			}
		}
	}
	st := (*staging)[:0]
	if cap(st) < staged {
		st = make([]byte, 0, staged)
	}
	g := (*gather)[:0]
	mark := 0
	for _, f := range batch {
		st = append(st, f.hdr...)
		for _, s := range f.segs {
			if len(s) >= stageSegMax {
				if len(st) > mark {
					g = append(g, st[mark:len(st):len(st)])
					mark = len(st)
				}
				g = append(g, s)
			} else {
				st = append(st, s...)
			}
		}
	}
	if len(st) > mark {
		g = append(g, st[mark:len(st):len(st)])
	}
	*staging = st

	d := e.d
	d.wmu[slot].Lock()
	conn := d.writeConn(slot)
	var err error
	switch {
	case conn == nil:
		err = xdev.Errf(DeviceName, "write", "no channel to slot %d", slot)
	case len(g) == 1:
		_, err = conn.Write(g[0])
	default:
		wb := g
		_, err = wb.WriteTo(conn) // consumes wb; g keeps the backing
	}
	d.wmu[slot].Unlock()
	clear(g[:cap(g)])
	*gather = g[:0]
	if err != nil {
		return err
	}

	c := &d.core.Counters
	c.SendBatches.Add(1)
	c.FramesCoalesced.Add(uint64(len(batch)))
	c.SendBatchBytes.Add(uint64(total))
	bucket := 0
	for n := len(batch); n > 1 && bucket < len(e.batchHist)-1; n >>= 1 {
		bucket++
	}
	e.batchHist[bucket].Add(1)
	return nil
}
