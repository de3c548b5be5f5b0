// Command perfbench is the repository's benchmark: three two-rank
// workloads, each stressing a different part of the message path, run
// inside one process. A plain run (-trace 0) measures the end-to-end
// metrics; a traced run (-trace 1) measures the per-layer metrics by
// replaying the workload's op stream at each layer's entry point.
// METRICS.md defines every metric.
//
//	bash perfbench/run.sh --workload pingpong-smp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The lines before it are a readable
// report, the host fingerprint among them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mpj"
	"mpj/internal/mpe"
)

const (
	// rounds is how many fresh jobs a plain run splits its measured time
	// over: each is started, warmed up and measured on its own, which
	// gives several set-up times per run and bounds how much heap a
	// leaking workload can pile up in one job.
	rounds = 12
	// Before each round a run times setupGroup bare starts, so the
	// starts are spread over the whole run. Set-up time is the median
	// over rounds of each group's mean without its fastest and slowest
	// start. niodev set-up is bimodal (a dial that beats the peer's
	// listener costs one 2 ms backoff), and with the two modes about
	// equally likely a plain median flips between them from run to
	// run; smpdev set-up has rare starts five times the median.
	setupGroup = 6
	warmup     = 200 * time.Millisecond
	// watchdog ends a run that hangs, well inside the 180 s a run may take.
	watchdog = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pingpong-smp, stream-nio or solver-nio")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "seconds of measured traffic")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded the watchdog; aborting")
		os.Exit(3)
	})

	hb, _ := json.Marshal(hostFingerprint())
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s (%s) seed %d seconds %g trace %d\n", w.name, w.why, *seed, *seconds, *trace)

	in := newInputs(*seed, w.solver)
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, in, dur, *out, *seed)
	} else {
		res, err = plainRun(w, in, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// round is what one job measured in its timed phase.
type round struct {
	setup  time.Duration
	ops    int64 // ops measured
	all    int64 // ops attempted, warm-up included
	failed int64
	bytes  int64
	hists  [modes]*hist
	d      delta
	dev    mpe.CounterSnapshot // device counters over the timed phase
	spans  []*spanLog
	timed  time.Duration // rank 0's timed phase
}

// runJob starts a job, warms it up, and measures it for timed. The
// snapshots at warm-up end and timed end are taken on rank 0 while the
// job is still up, with rank 1 waiting in a Barrier.
func runJob(w *workload, in *inputs, cycle []mode, timed time.Duration) (round, error) {
	t0 := time.Now()
	j := newJob(w, in, cycle, t0)
	var r round
	var before, after snapshot
	var devBefore, devAfter mpe.CounterSnapshot
	var warmOps int64
	err := mpj.RunLocalOpts(2, &mpj.Options{Device: w.device}, func(p *mpj.Process) error {
		rank := p.Rank()
		j.procs[rank] = p
		world := p.World()
		if err := world.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			r.setup = time.Since(t0)
		}
		if err := j.phase(p, warmup); err != nil {
			return err
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			for _, f := range j.flows {
				warmOps += f.ops
				for _, h := range f.hists {
					*h = hist{}
				}
				f.ops, f.bytes = 0, 0
			}
			devBefore = j.deviceStats()
			before = takeSnapshot()
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		if err := j.phase(p, timed); err != nil {
			return err
		}
		if rank == 0 {
			r.timed = time.Since(start)
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			after = takeSnapshot()
			devAfter = j.deviceStats()
		}
		return world.Barrier()
	})
	if j.err != nil {
		return r, j.err
	}
	if err != nil {
		return r, err
	}
	for m := range r.hists {
		r.hists[m] = new(hist)
	}
	for _, f := range j.flows {
		r.ops += f.ops
		r.bytes += f.bytes
		r.failed += f.failed.Load()
		for m, h := range f.hists {
			r.hists[m].merge(h)
		}
		r.spans = append(r.spans, f.log)
	}
	r.all = warmOps + r.ops
	// Both sides of a flow check what they receive, so one bad op can
	// be counted twice.
	r.failed = min(r.failed, r.all)
	r.d = diff(before, after)
	r.dev = counterDelta(devBefore, devAfter)
	return r, nil
}

// timeSetup starts a job and returns the time from the start to the
// end of its first Barrier.
func timeSetup(w *workload) (time.Duration, error) {
	var setup time.Duration
	t0 := time.Now()
	err := mpj.RunLocalOpts(2, &mpj.Options{Device: w.device}, func(p *mpj.Process) error {
		err := p.World().Barrier()
		if p.Rank() == 0 {
			setup = time.Since(t0)
		}
		return err
	})
	return setup, err
}

func counterDelta(a, b mpe.CounterSnapshot) mpe.CounterSnapshot {
	return mpe.CounterSnapshot{
		EagerSent:       b.EagerSent - a.EagerSent,
		RndvSent:        b.RndvSent - a.RndvSent,
		BytesSent:       b.BytesSent - a.BytesSent,
		Unexpected:      b.Unexpected - a.Unexpected,
		Matched:         b.Matched - a.Matched,
		CollSegsSent:    b.CollSegsSent - a.CollSegsSent,
		SendBatches:     b.SendBatches - a.SendBatches,
		FramesCoalesced: b.FramesCoalesced - a.FramesCoalesced,
		SendBatchBytes:  b.SendBatchBytes - a.SendBatchBytes,
		RequestsFailed:  b.RequestsFailed - a.RequestsFailed,
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// usedRounds is how many rounds a plain run's figures come from: the
// ones the hypervisor stole the least CPU time from (steal time in
// /proc/stat). On a shared host a vCPU taken away for part of a round
// can triple its latency, which says nothing about the program.
const usedRounds = rounds * 2 / 3

// roundFigures are one round's end-to-end figures.
type roundFigures struct {
	setup, p50, p90, rate, goodput, cpu, allocs, allocB, steal float64
}

// plainRun measures the end-to-end metrics over rounds jobs that each
// measure seconds/rounds of traffic, each after a group of bare starts
// timed for set-up time. Every metric is the median, over the
// usedRounds rounds with the least host steal, of the round's own
// figure, so a disturbed round does not move it.
func plainRun(w *workload, in *inputs, dur time.Duration) (result, error) {
	var figs []roundFigures
	var lat hist
	var ops, all, failed int64
	var retained float64
	for i := 0; i < rounds; i++ {
		group := make([]float64, setupGroup)
		for k := range group {
			s, err := timeSetup(w)
			if err != nil {
				return result{}, fmt.Errorf("round %d: setup start %d: %w", i, k, err)
			}
			group[k] = s.Seconds()
		}
		sort.Float64s(group)
		var sum float64
		for _, s := range group[1 : setupGroup-1] {
			sum += s
		}

		r, err := runJob(w, in, []mode{modeCore}, dur/rounds)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		if r.ops == 0 {
			return result{}, fmt.Errorf("round %d measured no ops", i)
		}
		h := r.hists[modeCore]
		lat.merge(h)
		ops += r.ops
		all += r.all
		failed += r.failed
		retained += r.d.retainedB
		n, sec := float64(r.ops), r.timed.Seconds()
		f := roundFigures{
			setup:   sum / (setupGroup - 2),
			p50:     h.quantile(0.5) / 1e3,
			p90:     h.quantile(0.9) / 1e3,
			rate:    n / sec,
			goodput: float64(r.bytes) / sec / 1e6,
			cpu:     r.d.cpu.Seconds() * 1e6 / n,
			allocs:  float64(r.d.mallocs) / n,
			allocB:  float64(r.d.allocB) / n,
			steal:   r.d.steal.Seconds() / (sec * float64(runtime.NumCPU())),
		}
		figs = append(figs, f)
		fmt.Printf("round %d: set-up %.6f s (bare starts %.6f..%.6f s), %d ops in %.3f s, latency p50 %.3f us p90 %.3f us, cpu %.3f us/op, host steal %.1f %%\n",
			i, r.setup.Seconds(), group[0], group[setupGroup-1], r.ops, sec, f.p50, f.p90, f.cpu, 100*f.steal)
	}
	kept := append([]roundFigures(nil), figs...)
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].steal < kept[b].steal })
	kept = kept[:usedRounds]
	med := func(get func(roundFigures) float64) float64 {
		v := make([]float64, len(kept))
		for i, f := range kept {
			v[i] = get(f)
		}
		return median(v)
	}
	e2e := []struct {
		name  string
		unit  string
		value float64
	}{
		{"setup_s", "s", med(func(f roundFigures) float64 { return f.setup })},
		{"lat_p50_us", "us", med(func(f roundFigures) float64 { return f.p50 })},
		{"lat_p90_us", "us", med(func(f roundFigures) float64 { return f.p90 })},
		{"ops_per_s", "1/s", med(func(f roundFigures) float64 { return f.rate })},
		{"goodput_MBps", "MB/s", med(func(f roundFigures) float64 { return f.goodput })},
		{"cpu_us_per_op", "us", med(func(f roundFigures) float64 { return f.cpu })},
		{"allocs_per_op", "count", med(func(f roundFigures) float64 { return f.allocs })},
		{"alloc_B_per_op", "B", med(func(f roundFigures) float64 { return f.allocB })},
		{"retained_B_per_op", "B", retained / float64(ops)},
		{"error_rate", "ratio", float64(failed) / float64(max(all, 1))},
	}
	res := result{Correct: failed == 0, Attempted: all, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("%d ops measured in %d rounds, figures from the %d with the least host steal (at most %.1f %%); all rounds together: %d latency samples, p50 %.3f us, p90 %.3f us\n",
		ops, rounds, len(kept), 100*kept[len(kept)-1].steal, lat.n, lat.quantile(0.5)/1e3, lat.quantile(0.9)/1e3)
	for _, m := range e2e {
		fmt.Printf("  %-20s %14.6g %s\n", m.name, m.value, m.unit)
		if reported[m.name] {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	return res, nil
}

// reported lists the end-to-end metrics the result line carries.
// retained_B_per_op (near zero, of either sign, except on stream-nio)
// and error_rate (zero unless the run is wrong) are printed in the
// report; the first is also a traced-run metric and failures are the
// result's attempted and failed counts.
var reported = map[string]bool{
	"setup_s": true, "lat_p50_us": true, "lat_p90_us": true, "ops_per_s": true,
	"goodput_MBps": true, "cpu_us_per_op": true, "allocs_per_op": true, "alloc_B_per_op": true,
}

// tracedRun measures the per-layer metrics. One job cycles its chunks
// through untraced core-level, traced core-level and xdev-level ops, so
// the three latencies are measured side by side; then each layer
// driver runs alone.
func tracedRun(w *workload, in *inputs, dur time.Duration, out string, seed int64) (result, error) {
	job, err := runJob(w, in, []mode{modeCore, modeTraced, modeXdev}, dur*3/5)
	if err != nil {
		return result{}, fmt.Errorf("traced job: %w", err)
	}
	rp := newReplay(w, in)
	packNs, unpackNs, bufAllocs := mpjbufLayer(w, in, rp)
	expNs := matchExpected(w, rp)
	unexpNs, retainedItem := matchUnexpected(w, rp)
	reqNs, reqAllocs := devcoreRequest()
	handoffNs := devcoreHandoff(w, rp)
	cqNs := cqueuePushCollect()
	wireNs, wireMBps := transportWrite(rp)

	nSpans, err := writeSpans(filepath.Join(out, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), job.spans)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}

	ops := float64(job.ops)
	per := float64(w.perSample)
	dev := job.dev
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	latCore := job.hists[modeCore].quantile(0.5) // ns per latency sample
	latTraced := job.hists[modeTraced].quantile(0.5)
	latXdev := job.hists[modeXdev].quantile(0.5)
	coreSelf := (latCore - latXdev) / per
	// Matched counts only arrivals that found their receive posted, so
	// the share of arrivals that had to wait is U / (U + M).
	unexpShare := ratio(dev.Unexpected, dev.Unexpected+dev.Matched)

	// One latency sample's blocking path, layer by layer (METRICS.md):
	// core's self time, mpjbuf, and per message a devcore hand-off (which
	// holds the matching and the wake) and a send request; on niodev a
	// transport write per frame.
	p := w.path
	pathNs := per * (coreSelf + packNs + unpackNs + p.msgs*(handoffNs+reqNs) + p.frames*wireNs)

	layer := []struct {
		name  string
		unit  string
		value float64
	}{
		{"devcore.request_ns", "ns", reqNs},
		{"devcore.request_allocs", "count", reqAllocs},
		{"devcore.handoff_ns", "ns", handoffNs},
		{"match.expected_ns", "ns", expNs},
		{"match.unexpected_ns", "ns", unexpNs},
		{"match.retained_B_per_item", "B", retainedItem},
		{"match.unexpected_share", "ratio", unexpShare},
		{"cqueue.push_collect_ns", "ns", cqNs},
		{"mpjbuf.pack_ns_per_op", "ns", packNs},
		{"mpjbuf.unpack_ns_per_op", "ns", unpackNs},
		{"mpjbuf.allocs_per_op", "count", bufAllocs},
		{"core.self_ns_per_op", "ns", coreSelf},
		{"core.coll_segs_per_op", "count", float64(dev.CollSegsSent) / float64(max(job.hists[modeCore].n+job.hists[modeTraced].n, 1)) / per},
		{"xdev.op_p50_us", "us", latXdev / 1e3},
		{"niodev.frames_per_batch", "count", ratio(dev.FramesCoalesced, dev.SendBatches)},
		{"niodev.batch_bytes", "B", ratio(dev.SendBatchBytes, dev.SendBatches)},
		{"niodev.rndv_share", "ratio", ratio(dev.RndvSent, dev.RndvSent+dev.EagerSent)},
		{"transport.write_ns", "ns", wireNs},
		{"transport.MBps", "MB/s", wireMBps},
		{"runtime.sched_lat_p50_us", "us", job.d.schedP50() * 1e6},
		{"runtime.mutex_wait_ns_per_op", "ns", job.d.mutexWait * 1e9 / ops},
		{"runtime.gc_cpu_pct", "%", 100 * job.d.gcCPU / math.Max(job.d.allCPU, 1e-9)},
		{"retained_B_per_op", "B", job.d.retainedB / ops},
		{"trace.coverage_pct", "%", 100 * pathNs / latCore},
		{"trace.overhead_pct", "%", 100 * (latTraced - latCore) / latCore},
	}
	res := result{Correct: job.failed == 0, Attempted: job.all, Failed: job.failed, Metrics: map[string]metric{}}
	fmt.Printf("latency p50 per sample: core %.3f us, core traced %.3f us, xdev %.3f us; %d ops; %d spans written\n",
		latCore/1e3, latTraced/1e3, latXdev/1e3, job.ops, nSpans)
	fmt.Printf("device counters over the job: eager %d, rendezvous %d, unexpected %d, matched %d, send batches %d, frames %d, coll segments %d\n",
		dev.EagerSent, dev.RndvSent, dev.Unexpected, dev.Matched, dev.SendBatches, dev.FramesCoalesced, dev.CollSegsSent)
	for _, m := range layer {
		fmt.Printf("  %-30s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	return res, nil
}
