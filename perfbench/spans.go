package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: the operation a workload times, and the calls it makes
// into the library's core API.
const (
	spOp = iota
	spCoreSend
	spCoreRecv
	spCoreSendrecv
	spCoreAllreduce
	spanNames
)

var spanName = [spanNames]string{
	"op", "core.Send", "core.Recv", "core.Sendrecv", "core.Allreduce",
}

// span is one timed call; parent indexes the enclosing span in the same
// log, or is -1. Times are ns since the log's base.
type span struct {
	name   int32
	parent int32
	op     int64
	start  int64
	end    int64
}

// spanLog holds one goroutine's spans in memory allocated up front;
// spans past its capacity are counted, not stored. It is written out
// once, when the benchmark ends.
type spanLog struct {
	base    time.Time
	spans   []span
	dropped int64
}

const spanCap = 1 << 14

func newSpanLog(base time.Time) *spanLog {
	return &spanLog{base: base, spans: make([]span, 0, spanCap)}
}

// begin opens a span and returns its index, or -1 when the log is full
// or nil.
func (l *spanLog) begin(name int32, parent int32, op int64) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(l.base))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = int64(time.Since(l.base))
}

// writeSpans writes every log as JSON lines into dir/name and returns
// the number of spans written.
func writeSpans(dir, name string, logs []*spanLog) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	type rec struct {
		Log    int    `json:"log"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Op     int64  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for li, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			if err := enc.Encode(rec{li, spanName[s.name], s.parent, s.op, s.start, s.end}); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
		if l.dropped > 0 {
			fmt.Fprintf(w, "{\"log\":%d,\"dropped\":%d}\n", li, l.dropped)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
