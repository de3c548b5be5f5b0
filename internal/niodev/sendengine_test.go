package niodev

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// setQueueBound lowers every peer send queue of d to bound frames.
// Call it after Init and before any traffic. A one-rank device has no
// engine and nothing to bound.
func setQueueBound(d *Device, bound int) {
	if d.engine == nil {
		return
	}
	for _, q := range d.engine.qs {
		if q != nil {
			q.mu.Lock()
			q.limit = bound
			q.mu.Unlock()
		}
	}
}

// TestPeerQueueBatchOrder checks the queue's FIFO contract: a batch
// pops frames in enqueue order, up to the batch caps.
func TestPeerQueueBatchOrder(t *testing.T) {
	q := newPeerQueue(16)
	var want []*sendFrame
	for i := 0; i < 5; i++ {
		f := getFrame()
		f.hdr = make([]byte, headerLen)
		want = append(want, f)
		if err := q.enqueue(f, true); err != nil {
			t.Fatal(err)
		}
	}
	got := q.takeBatch(nil)
	if len(got) != 5 {
		t.Fatalf("batch has %d frames, want 5", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if q.depth.Load() != 0 {
		t.Fatalf("depth = %d after drain", q.depth.Load())
	}
}

// TestPeerQueuePoisonWakesBlockedEnqueuer is the backpressure-failure
// contract at the queue level: an enqueue blocked on a full queue must
// wake with the poison error, and the queued frames must be handed
// back for failure, not dropped.
func TestPeerQueuePoisonWakesBlockedEnqueuer(t *testing.T) {
	q := newPeerQueue(1)
	f1 := getFrame()
	f1.hdr = make([]byte, headerLen)
	if err := q.enqueue(f1, true); err != nil {
		t.Fatal(err)
	}
	dead := errors.New("peer dead")
	blocked := make(chan error, 1)
	go func() {
		f2 := getFrame()
		f2.hdr = make([]byte, headerLen)
		err := q.enqueue(f2, true) // queue full: blocks until poison
		if err != nil {
			putFrame(f2)
		}
		blocked <- err
	}()
	// Give the enqueuer time to block, then poison.
	time.Sleep(20 * time.Millisecond)
	drained := q.poison(dead)
	if len(drained) != 1 || drained[0] != f1 {
		t.Fatalf("poison drained %d frames, want the 1 queued", len(drained))
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, dead) {
			t.Fatalf("blocked enqueue woke with %v, want the poison error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked enqueue never woke after poison")
	}
	// Post-poison enqueues fail fast, and the drainer side sees empty.
	f3 := getFrame()
	f3.hdr = make([]byte, headerLen)
	if err := q.enqueue(f3, false); !errors.Is(err, dead) {
		t.Fatalf("post-poison enqueue: %v, want poison error", err)
	}
	putFrame(f3)
	if batch := q.takeBatch(nil); len(batch) != 0 {
		t.Fatalf("takeBatch on poisoned queue returned %d frames", len(batch))
	}
	putFrame(f1)
}

// TestPeerQueueCloseWithAppendsBehindQueued checks flush-on-finalize
// at the queue level: the closing frame (the bye) must come out
// *after* everything already queued.
func TestPeerQueueCloseWithAppendsBehindQueued(t *testing.T) {
	q := newPeerQueue(16)
	data := getFrame()
	data.hdr = make([]byte, headerLen)
	if err := q.enqueue(data, true); err != nil {
		t.Fatal(err)
	}
	bye := getFrame()
	bye.hdr = make([]byte, headerLen)
	if !q.closeWith(bye) {
		t.Fatal("closeWith rejected on a healthy queue")
	}
	if err := q.enqueue(getFrame(), false); err == nil {
		t.Fatal("enqueue accepted after closeWith")
	}
	batch := q.takeBatch(nil)
	if len(batch) != 2 || batch[0] != data || batch[1] != bye {
		t.Fatalf("closing batch = %d frames, want [data, bye] in order", len(batch))
	}
	if again := q.takeBatch(nil); len(again) != 0 {
		t.Fatal("takeBatch did not report the closed queue as drained")
	}
	putFrame(data)
	putFrame(bye)
}

// TestSendEngineFlushOnFinish checks flush-on-finalize end to end:
// frames enqueued (not yet written) when Finish is called must all
// reach the peer ahead of the goodbye — no frame left queued.
func TestSendEngineFlushOnFinish(t *testing.T) {
	const n = 64
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			if d.engine == nil {
				t.Error("send engine not running under default config")
				return
			}
			for i := 0; i < n; i++ {
				buf := mpjbuf.New(16)
				buf.WriteInts([]int32{int32(i)}, 0, 1)
				// ISend without Wait: completion rides the engine frame.
				if _, err := d.ISend(buf, pids[1], 5, 0); err != nil {
					t.Errorf("isend %d: %v", i, err)
					return
				}
			}
			// Finish with up to n frames still queued: sayGoodbye must
			// drain them through the engine before the bye goes out.
			d.Finish()
			return
		}
		for i := 0; i < n; i++ {
			got := recvInts(t, d, pids[0], 5, 1)
			if len(got) != 1 || got[0] != int32(i) {
				t.Errorf("recv %d: got %v, want [%d]", i, got, i)
				return
			}
		}
		// The departure must have been graceful: a flushed goodbye, not
		// a connection error.
		deadline := time.Now().Add(5 * time.Second)
		for d.peerErr(0) == nil {
			if time.Now().After(deadline) {
				t.Error("rank 1 never saw rank 0's goodbye")
				return
			}
			time.Sleep(time.Millisecond)
		}
		if d.Stats().PeersLost != 0 {
			t.Error("graceful goodbye was counted as a peer loss")
		}
	})
}

// TestSendEngineBlockedEnqueueWokenByPeerDeath checks backpressure
// failure end to end: senders blocked on a full per-peer queue (the
// drainer is wedged mid-batch behind the conn-ownership lock) must
// wake with ErrPeerLost when the peer is declared dead.
func TestSendEngineBlockedEnqueueWokenByPeerDeath(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank != 0 {
			return // rank 1 just exists to be declared dead
		}
		// Bound the peer queue at one frame, so a handful of senders
		// is enough to fill it.
		setQueueBound(d, 1)
		// Wedge the drainer: it takes wmu[1] per batch, so holding the
		// lock stalls the first frame mid-write and lets the queue
		// (limit 1) fill behind it.
		d.wmu[1].Lock()
		const senders = 3
		errsCh := make(chan error, senders)
		for i := 0; i < senders; i++ {
			go func() {
				buf := mpjbuf.New(16)
				buf.WriteInts([]int32{1}, 0, 1)
				errsCh <- d.Send(buf, pids[1], 9, 0)
			}()
		}
		// Let the senders pile up: one frame in the drainer, one in the
		// queue, one blocked in enqueue.
		time.Sleep(50 * time.Millisecond)
		d.markPeerDead(1, errors.New("test: simulated peer failure"))
		d.wmu[1].Unlock()
		for i := 0; i < senders; i++ {
			select {
			case err := <-errsCh:
				if !errors.Is(err, xdev.ErrPeerLost) {
					t.Errorf("sender %d: %v, want ErrPeerLost", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("sender %d still blocked after peer death", i)
			}
		}
	})
}

// TestSendEngineManySendersOnePeer is the -race stress for the MPSC
// path: many goroutines funnel into one peer's queue; per-(src,dst)
// order must hold within each sender's tag stream, and every message
// must arrive exactly once.
func TestSendEngineManySendersOnePeer(t *testing.T) {
	const senders = 8
	msgs := 200
	if testing.Short() {
		msgs = 50
	}
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						sendInts(t, d, pids[1], 100+s, []int32{int32(i)})
					}
				}(s)
			}
			wg.Wait()
			// The whole point of the engine: those sends must have been
			// coalesced, so frames per wire write is at least 1 and the
			// batch counters moved.
			st := d.Stats()
			if st.SendBatches == 0 {
				t.Error("engine ran but SendBatches = 0")
			}
			if st.FramesCoalesced < st.SendBatches {
				t.Errorf("FramesCoalesced=%d < SendBatches=%d", st.FramesCoalesced, st.SendBatches)
			}
			return
		}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					got := recvInts(t, d, pids[0], 100+s, 1)
					if len(got) != 1 || got[0] != int32(i) {
						t.Errorf("tag %d msg %d: got %v, want [%d] (ordering violated)", 100+s, i, got, i)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	})
}

// TestSendEngineCountersAndIntrospection checks the observability
// surface: batch counters move, and Introspect reports the engine's
// batch histogram plus per-peer queue depth.
func TestSendEngineCountersAndIntrospection(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			for i := 0; i < 32; i++ {
				sendInts(t, d, pids[1], 11, []int32{int32(i)})
			}
			// A drainer may still be mid-batch when the last Send returns
			// — poll briefly for the batch counters instead of reading
			// them racily.
			st := d.Stats()
			for deadline := time.Now().Add(5 * time.Second); st.SendBatches == 0 || st.FramesCoalesced == 0 || st.SendBatchBytes == 0; st = d.Stats() {
				if time.Now().After(deadline) {
					t.Errorf("engine counters did not move: batches=%d frames=%d bytes=%d",
						st.SendBatches, st.FramesCoalesced, st.SendBatchBytes)
					break
				}
				time.Sleep(time.Millisecond)
			}
			intro, ok := d.Introspect().(introspection)
			if !ok {
				t.Fatalf("Introspect returned %T", d.Introspect())
			}
			hist := intro.SendEngine.BatchHist
			var total uint64
			for _, b := range hist {
				total += b
			}
			if total == 0 {
				t.Error("batch histogram is empty after 32 sends")
			}
			// The engine block carries only the histogram: its sizing
			// and spin are constants, not state worth serving.
			raw, err := json.Marshal(intro.SendEngine)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if _, ok := fields["batchHist"]; !ok || len(fields) != 1 {
				t.Errorf("sendEngine block = %s, want only batchHist", raw)
			}
			if len(intro.Peers) != 1 || intro.Peers[0].Slot != 1 || !intro.Peers[0].Connected {
				t.Errorf("introspected peers = %+v, want connected slot 1", intro.Peers)
			} else if qd := intro.Peers[0].SendQueue; qd < 0 || qd > DefaultSendQueue {
				t.Errorf("peer send-queue depth = %d, want within [0,%d]", qd, DefaultSendQueue)
			}
			return
		}
		for i := 0; i < 32; i++ {
			recvInts(t, d, pids[0], 11, 1)
		}
	})
}

// TestSendEngineLargeMessages drives the rendezvous path (payload over
// the eager limit) through the engine: the forked rendezvous writer
// enqueues its data frame like any other sender.
func TestSendEngineLargeMessages(t *testing.T) {
	const n = 40_000 // * 4 bytes > 128 KiB default eager limit
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		vals := make([]int32, n)
		if rank == 0 {
			for i := range vals {
				vals[i] = int32(i)
			}
			sendInts(t, d, pids[1], 21, vals)
			if st := d.Stats(); st.RndvSent != 1 {
				t.Errorf("RndvSent = %d, want 1 (message should exceed the eager limit)", st.RndvSent)
			}
			return
		}
		got := recvInts(t, d, pids[0], 21, n)
		for i, v := range got {
			if v != int32(i) {
				t.Fatalf("payload[%d] = %d, want %d", i, v, i)
			}
		}
	})
}
