// Package niodev is the pure-Go communication device of this MPJ
// Express reproduction, the counterpart of the paper's Java NIO device
// (§IV-A). It speaks two protocols over stream connections:
//
//   - an eager protocol for messages at or below the eager limit
//     (128 KiB by default, the paper's TCP switch point): data is
//     written immediately on the assumption that the receiver can
//     buffer it (Figs. 3–5);
//   - a rendezvous protocol for larger messages: a READY_TO_SEND
//     control message, matched at the receiver, answered by a
//     READY_TO_RECV, after which a forked writer goroutine transmits
//     the data — never the input handler, which must stay unblocked to
//     avoid the mutual-large-send deadlock the paper describes
//     (Figs. 6–8).
//
// Faithful structural choices:
//
//   - two connections per process pair, one used exclusively for
//     writing and one for reading, mirroring the paper's split between
//     blocking write channels and non-blocking read channels;
//   - a per-destination lock serializing writers to each write channel;
//   - a single receive-communication-sets lock guarding message
//     matching, with the paper's four-key matching scheme (§IV-E.2,
//     package match);
//   - one input-handler goroutine per inbound connection plays the role
//     of the select()-driven progress engine: Go's blocking reads on a
//     per-peer goroutine are the idiomatic equivalent of NIO channel
//     multiplexing.
//
// The device is thread safe at MPI_THREAD_MULTIPLE: any goroutine may
// call any operation concurrently.
package niodev

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "niodev"

// DefaultEagerLimit is the eager→rendezvous protocol switch point in
// wire bytes (the paper reports 128 Kbytes for TCP).
const DefaultEagerLimit = 128 << 10

// connectTimeout bounds how long Init waits for peers to come up.
const connectTimeout = 30 * time.Second

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// Device implements xdev.Device over stream transports.
type Device struct {
	cfg        xdev.Config
	self       xdev.ProcessID
	pids       []xdev.ProcessID
	tr         xdev.Transport
	listener   net.Listener
	eagerLimit int

	// Write channels: one conn per destination slot, each with its own
	// lock (the paper's per-destination channel lock). The lock is the
	// conn-ownership lock shared by the engine's batched writes and the
	// few synchronous writes (abort, revoke), so frames from the two
	// never interleave.
	wmu   []sync.Mutex
	wconn []net.Conn

	// engine is the outbound path (sendengine.go): per-peer frame
	// queues written by the caller when the peer's writer role is free,
	// else drained by coalescing sender goroutines. Nil for
	// single-process jobs, which never send over the wire.
	engine *sendEngine

	// core is the shared progress engine: the receive-communication
	// sets (posted + arrived under the paper's single lock), the
	// completion queue, and peer-death/abort propagation all live
	// there. The device contributes only the TCP transport binding.
	core *devcore.Core

	// Protocol pending sets, registered with the core so its failure
	// drains cover them. Keys are (peer slot, protocol sequence).
	pendingRndv  *devcore.PendingSet // send awaiting READY_TO_RECV
	pendingSync  *devcore.PendingSet // eager-sync send awaiting ACK
	rndvIncoming *devcore.PendingSet // receive awaiting rendezvous data

	// Inbound (read) channels accepted from peers, closed by Finish so
	// input handlers terminate without waiting for the peer to exit.
	rcmu   sync.Mutex
	rconns []net.Conn

	inboundWG sync.WaitGroup // one count per expected inbound conn
	handlerWG sync.WaitGroup
	closed    atomic.Bool
	initDone  bool

	// pmu guards the write-connection table, mutated by Init while
	// input handlers may already be failing peers.
	pmu    sync.Mutex
	crcOut bool // compute frame checksums on outgoing frames

	rec mpe.Recorder
}

// New returns an uninitialized niodev device.
func New() *Device {
	d := &Device{
		core: devcore.New(DeviceName),
		rec:  mpe.Nop{},
	}
	d.pendingRndv = d.core.NewPendingSet("rndv-send")
	d.pendingSync = d.core.NewPendingSet("sync-send")
	d.rndvIncoming = d.core.NewPendingSet("rndv-recv")
	return d
}

// Init joins the job described by cfg: it listens on its own address,
// dials a dedicated write channel to every peer, and waits for every
// peer's write channel to arrive (the inbound read channels).
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	if d.initDone {
		return nil, xdev.Errf(DeviceName, "init", "device already initialized")
	}
	if cfg.Size < 1 {
		return nil, xdev.Errf(DeviceName, "init", "job size %d < 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, xdev.Errf(DeviceName, "init", "rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	d.cfg = cfg
	if cfg.Recorder != nil {
		d.rec = cfg.Recorder
		d.core.SetRecorder(cfg.Recorder)
	}
	if cfg.Replay != nil {
		d.core.SetReplay(cfg.Replay)
	}
	d.eagerLimit = cfg.EagerLimit
	if d.eagerLimit <= 0 {
		d.eagerLimit = DefaultEagerLimit
	}
	d.tr = cfg.Dialer
	if d.tr == nil {
		d.tr = transport.TCP{}
	}
	d.pids = make([]xdev.ProcessID, cfg.Size)
	for i := range d.pids {
		d.pids[i] = xdev.ProcessID{UUID: uint64(i)}
	}
	d.self = d.pids[cfg.Rank]
	d.wmu = make([]sync.Mutex, cfg.Size)
	d.wconn = make([]net.Conn, cfg.Size)
	d.crcOut = !cfg.DisableChecksum

	if cfg.Size > 1 {
		if len(cfg.Addrs) != cfg.Size {
			return nil, xdev.Errf(DeviceName, "init", "have %d addresses for %d processes", len(cfg.Addrs), cfg.Size)
		}
		l, err := d.tr.Listen(cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, &xdev.Error{Dev: DeviceName, Op: "listen", Err: err}
		}
		d.listener = l
		d.inboundWG.Add(cfg.Size - 1)
		d.handlerWG.Add(1)
		go d.acceptLoop()

		for slot := 0; slot < cfg.Size; slot++ {
			if slot == cfg.Rank {
				continue
			}
			conn, err := d.dialPeer(cfg.Addrs[slot], slot)
			if err != nil {
				d.Finish()
				return nil, &xdev.Error{Dev: DeviceName, Op: "connect to slot " + fmt.Sprint(slot), Err: err}
			}
			d.setWriteConn(slot, conn)
		}
		// Wait for every peer's write channel to reach us, so the job
		// is fully wired before Init returns anywhere.
		if err := waitTimeout(&d.inboundWG, connectTimeout); err != nil {
			d.Finish()
			return nil, &xdev.Error{Dev: DeviceName, Op: "await inbound connections", Err: err}
		}
		// Started only after the job is fully wired: no frame can be
		// enqueued before Init returns, and every write conn exists.
		d.engine = newSendEngine(d)
		d.engine.start()
	}
	d.initDone = true
	return append([]xdev.ProcessID(nil), d.pids...), nil
}

// dialPeer dials addr, retrying with jittered exponential backoff
// until the peer's listener is up, and introduces itself with a hello
// frame advertising this side's checksum setting.
func (d *Device) dialPeer(addr string, slot int) (net.Conn, error) {
	var flags uint32
	if d.crcOut {
		flags |= helloFlagCRC
	}
	// Seed from (rank, slot) so simultaneous dialers desynchronize
	// deterministically.
	bo := transport.NewBackoff(2*time.Millisecond, 250*time.Millisecond,
		int64(d.cfg.Rank)*int64(d.cfg.Size)+int64(slot)+1)
	deadline := time.Now().Add(connectTimeout)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := d.tr.Dial(addr)
		if err == nil {
			if err := writeHello(conn, uint32(d.cfg.Rank), flags); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		}
		lastErr = err
		time.Sleep(bo.Next())
	}
	return nil, fmt.Errorf("gave up after %v: %w", connectTimeout, lastErr)
}

func (d *Device) acceptLoop() {
	defer d.handlerWG.Done()
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			return // listener closed by Finish
		}
		d.handlerWG.Add(1)
		go func() {
			defer d.handlerWG.Done()
			slot, flags, err := readHello(conn)
			if err != nil || int(slot) >= d.cfg.Size {
				conn.Close()
				return
			}
			d.rcmu.Lock()
			d.rconns = append(d.rconns, conn)
			alreadyClosed := d.closed.Load()
			d.rcmu.Unlock()
			if alreadyClosed {
				conn.Close()
				return
			}
			d.inboundWG.Done()
			d.inputHandler(conn, slot, flags&helloFlagCRC != 0)
		}()
	}
}

// waitTimeout waits for wg or fails after the timeout. The explicit
// Timer (instead of time.After) is stopped on the success path so the
// common case does not leak a pending timer for the full timeout.
func waitTimeout(wg *sync.WaitGroup, timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return fmt.Errorf("timed out after %v", timeout)
	}
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.self }

// SendOverhead reports the fixed per-message header bytes on the wire.
func (d *Device) SendOverhead() int { return headerLen }

// RecvOverhead reports the fixed per-message header bytes on the wire.
func (d *Device) RecvOverhead() int { return headerLen }

// EagerLimit reports the active protocol switch point.
func (d *Device) EagerLimit() int { return d.eagerLimit }

// Finish closes connections and the listener, fails every pending
// request with a device-closed error, and wakes all blocked callers —
// a Recv or Wait outstanding at Finish returns an error rather than
// hanging. Live peers are sent a goodbye frame first, so they treat
// this rank's departure as graceful rather than a failure.
func (d *Device) Finish() error {
	d.sayGoodbye()
	d.shutdown(ErrDeviceClosed, true)
	return nil
}

// sayGoodbye broadcasts a best-effort bye frame to every live peer.
// The flush is bounded so a wedged write channel cannot turn Finish
// into a hang: shutdown closes the connections immediately afterwards,
// failing any straggler, and that peer simply sees EOF (a loss)
// instead of the bye. A nil engine (single-process job, or an Init
// that failed before the job was wired) has no peer to tell.
func (d *Device) sayGoodbye() {
	e := d.engine
	if d.closed.Load() || e == nil {
		return
	}
	// Flush-on-finalize: close each peer's queue with the bye frame
	// appended *behind* everything already queued, so every data frame
	// a sender enqueued before Finish reaches the wire ahead of the
	// goodbye — no frame is left queued. Then wait (bounded) for the
	// drainers to run the queues dry.
	h := header{typ: msgBye, src: uint32(d.cfg.Rank)}
	deadline := time.Now().Add(goodbyeFlush)
	for slot := range d.pids {
		if slot == d.cfg.Rank || d.peerErr(slot) != nil {
			continue
		}
		q := e.queue(slot)
		if q == nil {
			continue
		}
		f := d.newFrame(h, nil, nil, xdev.Status{})
		if !q.closeWith(f) {
			putFrame(f) // already poisoned or closing; nothing to flush
		}
	}
	for _, q := range e.qs {
		if q != nil {
			q.waitIdle(deadline)
		}
	}
}

func (d *Device) slotOf(p xdev.ProcessID) (int, error) {
	if p.UUID >= uint64(len(d.pids)) {
		return 0, xdev.Errf(DeviceName, "resolve", "unknown process %v", p)
	}
	return int(p.UUID), nil
}

var _ xdev.Device = (*Device)(nil)
