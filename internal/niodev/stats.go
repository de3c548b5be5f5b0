package niodev

import (
	"mpj/internal/devcore"
	"mpj/internal/mpe"
)

// Stats is a snapshot of the device's activity counters, usable for
// tuning and for verifying protocol selection (eager vs rendezvous) in
// tests and benchmarks. It is the shared mpe.CounterSnapshot type —
// every device in the repository reports the same shape.
type Stats = mpe.CounterSnapshot

// Stats returns a snapshot of the device's activity counters, which
// live in the shared progress core.
func (d *Device) Stats() Stats { return d.core.Counters.Snapshot() }

// CountersRef exposes the live counter block (mpe.CounterSource) so
// upper layers account into the same counters Stats reports.
func (d *Device) CountersRef() *mpe.Counters {
	if d.core == nil {
		return nil
	}
	return &d.core.Counters
}

// Recorder exposes the device's event recorder so upper layers
// (mpjdev, core) record into the same per-rank stream
// (mpe.Instrumented).
func (d *Device) Recorder() mpe.Recorder { return d.rec }

// peerState is one peer's wire + liveness view for Introspect.
type peerState struct {
	Slot      int    `json:"slot"`
	Connected bool   `json:"connected"`
	Err       string `json:"err,omitempty"`
	// SendQueue is the number of frames currently queued for this peer
	// in the send engine.
	SendQueue int `json:"sendQueue,omitempty"`
}

// sendEngineState is the engine's live view for Introspect: the
// frames-per-batch histogram (bucket i counts batches of
// 2^i..2^(i+1)-1 frames; the last is open-ended).
type sendEngineState struct {
	BatchHist []uint64 `json:"batchHist,omitempty"`
}

// introspection is the live-state dump the telemetry endpoint serves:
// the progress core's queue depths plus this device's per-peer
// connection and failure state.
type introspection struct {
	Core       devcore.CoreState `json:"core"`
	SendEngine sendEngineState   `json:"sendEngine"`
	Peers      []peerState       `json:"peers,omitempty"`
}

// Introspect snapshots the device's live progress-engine and
// connection state for the telemetry /introspect endpoint.
func (d *Device) Introspect() any {
	out := introspection{Core: d.core.Introspect()}
	if e := d.engine; e != nil {
		out.SendEngine.BatchHist = e.histSnapshot()
	}
	for slot := range d.pids {
		if slot == d.cfg.Rank {
			continue
		}
		ps := peerState{Slot: slot, Connected: d.writeConn(slot) != nil}
		if err := d.core.PeerErr(uint64(slot)); err != nil {
			ps.Err = err.Error()
		}
		if e := d.engine; e != nil {
			ps.SendQueue = e.depthOf(slot)
		}
		out.Peers = append(out.Peers, ps)
	}
	return out
}
