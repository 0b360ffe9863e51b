package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"time"

	cogra "repro"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/stream"
)

// rungNames are the cumulative rungs of the ladder: each adds one layer
// to the rung below, so a layer's self time is its rung minus the one
// below.
var rungNames = [4]string{"decode", "+reorder", "+runtime", "+egress"}

// ladderOut is what the ladder and the probes beside it measured, per
// event of the replayed stream unless named otherwise.
type ladderOut struct {
	events int
	reps   int
	rungNs [4][]float64 // ns/event per repetition

	decodeNs, decodeAllocs   float64
	reorderNs                float64
	reorderPeak              float64
	runtimeNs, runtimeAllocs float64
	shareFlips, sharedSaved  float64
	rowsPerEvent             float64
	sseNsPerRow              float64
	resolveNs                float64
	updateNs, updateAllocs   float64
	advanceNs, advanceAllocs float64
	pushNs, pushAllocs       float64
}

// ladderEvents sizes the replayed stream: about a quarter second of the
// workload's offered rate, so each rung repetition stays short.
func ladderEvents(w *workload) int {
	n := int(w.rate / 4)
	n = max(16384, min(131072, n))
	return n / batchLen * batchLen
}

// ladderInput is the replayed stream in the forms the rungs start from.
type ladderInput struct {
	arrival []*cogra.Event // arrival order, as sent
	ordered []*cogra.Event // time order, as the reorder buffer releases it
	frames  [][]byte       // one ingest frame payload per batch
}

func newLadderInput(w *workload, seed int64) (*ladderInput, error) {
	in := &ladderInput{arrival: newSource(w, seed, false).take(ladderEvents(w))}
	for i := 0; i < len(in.arrival); i += batchLen {
		f, err := server.AppendIngest(nil, tenantName, in.arrival[i:i+batchLen])
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, f)
	}
	if w.slack() == 0 {
		in.ordered = in.arrival
		return in, nil
	}
	ro := stream.NewReorderer(w.slack())
	for _, e := range in.arrival {
		out, err := ro.Offer(e)
		if err != nil {
			return nil, err
		}
		in.ordered = append(in.ordered, out...)
	}
	in.ordered = append(in.ordered, ro.Flush()...)
	return in, nil
}

// runLadder replays the workload's stream through the cumulative rungs
// and the probes, repeating the whole set until budget is spent (at
// least three times) and keeping medians.
func runLadder(w *workload, seed int64, tr *tracer, budget time.Duration) (*ladderOut, error) {
	in, err := newLadderInput(w, seed)
	if err != nil {
		return nil, err
	}
	out := &ladderOut{events: len(in.arrival)}
	var dec, reo, rt, push, res, upd, adv, sse []float64
	var decA, rtA, pushA, updA, advA []float64
	start := time.Now()
	for rep := 0; rep < 3 || (rep < 15 && time.Since(start) < budget); rep++ {
		var allocs [4]float64
		for level := 1; level <= 4; level++ {
			r, err := rung(w, in, level, tr, int64(rep))
			if err != nil {
				return nil, err
			}
			out.rungNs[level-1] = append(out.rungNs[level-1], r.total)
			allocs[level-1] = r.allocs
			switch level {
			case 1:
				dec = append(dec, r.decode)
			case 2:
				reo = append(reo, r.reorder)
				out.reorderPeak = float64(r.peak)
			case 3:
				rt = append(rt, r.runtime)
				out.shareFlips, out.sharedSaved, out.rowsPerEvent = r.flips, r.saved, r.rows
			case 4:
				sse = append(sse, r.ssePerRow)
			}
		}
		decA = append(decA, allocs[0])
		rtA = append(rtA, allocs[2]-allocs[1])
		r, a, err := pushProbe(w, in)
		if err != nil {
			return nil, err
		}
		push, pushA = append(push, r), append(pushA, a)
		if res, err = appendResolve(res, w, in); err != nil {
			return nil, err
		}
		u, ua, av, aa, err := engineProbe(w, in)
		if err != nil {
			return nil, err
		}
		upd, updA, adv, advA = append(upd, u), append(updA, ua), append(adv, av), append(advA, aa)
		out.reps = rep + 1
	}
	out.decodeNs, out.decodeAllocs = median(dec), median(decA)
	out.reorderNs = median(reo)
	out.runtimeNs, out.runtimeAllocs = median(rt), median(rtA)
	out.sseNsPerRow = median(sse)
	out.pushNs, out.pushAllocs = median(push), median(pushA)
	out.resolveNs = median(res)
	out.updateNs, out.updateAllocs = median(upd), median(updA)
	out.advanceNs, out.advanceAllocs = median(adv), median(advA)
	return out, nil
}

// rungResult is one pass of one rung.
type rungResult struct {
	total, decode, reorder, runtime float64 // ns/event
	allocs                          float64 // heap objects/event, whole pass
	peak                            int
	flips, saved, rows              float64
	ssePerRow                       float64
}

// rung replays every frame through the layers up to level: 1 decodes,
// 2 also reorders, 3 also runs the fleet on an inline runtime with the
// workload's sharing setting, 4 also drains the rows every drainEvery
// batches and encodes the probe's rows as SSE events.
func rung(w *workload, in *ladderInput, level int, tr *tracer, rep int64) (rungResult, error) {
	var r rungResult
	var dec server.Decoder
	var ro *stream.Reorderer
	if level >= 2 && w.slack() > 0 {
		ro = stream.NewReorderer(w.slack())
	}
	var rt *runtime.Runtime
	var subs []*runtime.Subscription
	if level >= 3 {
		rt = runtime.New()
		if w.shared {
			rt.EnableSharedAggregation()
		}
		for _, text := range w.fleet {
			sub, err := rt.Subscribe(cogra.MustParse(text))
			if err != nil {
				return r, err
			}
			subs = append(subs, sub)
		}
	}
	var sseBuf bytes.Buffer
	enc := json.NewEncoder(&sseBuf)
	var released []*cogra.Event
	var dDec, dReo, dRt, dSSE time.Duration
	var rows, sseRows int
	name := "ladder." + rungNames[level-1]
	m0 := memAllocs()
	start := time.Now()
	for b, frame := range in.frames {
		batch := rep<<32 | int64(b)
		sp := tr.begin(name, batch, 0)
		t0 := time.Now()
		c := tr.begin("server.decode", batch, sp)
		_, events, err := dec.DecodeIngest(frame)
		tr.end(c)
		t1 := time.Now()
		dDec += t1.Sub(t0)
		if err != nil {
			return r, err
		}
		if ro != nil {
			c = tr.begin("stream.reorder", batch, sp)
			released = released[:0]
			for _, e := range events {
				out, err := ro.Offer(e)
				if err != nil {
					return r, err
				}
				released = append(released, out...)
			}
			r.peak = max(r.peak, ro.Buffered())
			tr.end(c)
			events = released
			t2 := time.Now()
			dReo += t2.Sub(t1)
			t1 = t2
		}
		if rt != nil {
			c = tr.begin("runtime.process", batch, sp)
			err := rt.ProcessBatch(events)
			tr.end(c)
			t2 := time.Now()
			dRt += t2.Sub(t1)
			t1 = t2
			if err != nil {
				return r, err
			}
		}
		if level >= 4 && (b+1)%drainEvery == 0 {
			c = tr.begin("server.egress", batch, sp)
			for i, sub := range subs {
				got := sub.Drain()
				rows += len(got)
				if i != w.probe {
					continue
				}
				for _, res := range got {
					sseBuf.WriteString("event: result\ndata: ")
					if err := enc.Encode(server.ToWireResult(res)); err != nil {
						return r, err
					}
					sseBuf.WriteString("\n")
					sseRows++
				}
			}
			sseBuf.Reset()
			tr.end(c)
			dSSE += time.Since(t1)
		}
		tr.end(sp)
	}
	total := time.Since(start)
	r.allocs = float64(memAllocs()-m0) / float64(len(in.arrival))
	n := float64(len(in.arrival))
	r.total = float64(total) / n
	r.decode, r.reorder, r.runtime = float64(dDec)/n, float64(dReo)/n, float64(dRt)/n
	if rt != nil {
		st := rt.Stats()
		r.flips = float64(st.ShareFlips)
		if members := len(w.fleet) - 1; st.Events > 0 && members > 0 {
			r.saved = float64(st.SharedSavedOps) / float64(st.Events*int64(members))
		}
		for _, sub := range subs {
			rows += len(sub.Drain())
		}
		r.rows = float64(rows) / n
	}
	if sseRows > 0 {
		r.ssePerRow = float64(dSSE) / float64(sseRows)
	}
	return r, nil
}

// pushProbe is the single-threaded embedded baseline of the same job:
// the fleet on a cogra.Session with the workload's options, fed the
// arrival-order stream through PushBatch. Returns ns and allocs/event.
func pushProbe(w *workload, in *ladderInput) (float64, float64, error) {
	sess := cogra.NewSession(w.sessionOptions()...)
	var subs []*cogra.Subscription
	for _, text := range w.fleet {
		sub, err := sess.Subscribe(cogra.MustParse(text))
		if err != nil {
			return 0, 0, err
		}
		subs = append(subs, sub)
	}
	m0 := memAllocs()
	start := time.Now()
	for b := 0; b*batchLen < len(in.arrival); b++ {
		if err := sess.PushBatch(in.arrival[b*batchLen : (b+1)*batchLen]); err != nil {
			return 0, 0, err
		}
		if (b+1)%drainEvery == 0 {
			for _, sub := range subs {
				sub.Drain()
			}
		}
	}
	d := time.Since(start)
	a := memAllocs() - m0
	n := float64(len(in.arrival))
	return float64(d) / n, float64(a) / n, sess.Close()
}

// appendResolve times (*core.Resolver).Resolve over the fleet's catalog
// for every event of the time-ordered stream, batch by batch.
func appendResolve(dst []float64, w *workload, in *ladderInput) ([]float64, error) {
	rt := runtime.New()
	for _, text := range w.fleet {
		if _, err := rt.Subscribe(cogra.MustParse(text)); err != nil {
			return dst, err
		}
	}
	res := core.NewResolver(rt.Catalog())
	start := time.Now()
	for _, e := range in.ordered {
		resolveSink = res.Resolve(e)
	}
	d := time.Since(start)
	return append(dst, float64(d)/float64(len(in.ordered))), nil
}

// resolveSink keeps the resolve probe's calls from being optimised away.
var resolveSink int32

// engineProbe runs the probe query on a solo core.Engine over the
// time-ordered stream. On every time change it first advances the
// watermark (window close and emit), then processes the event with the
// watermark already advanced (Kleene update), timing the two calls
// apart. Allocations are split by reading the exact heap counters
// around each AdvanceWatermark call on the stream's first 8192 events.
// Returns update ns, update allocs, advance ns and advance allocs, per
// event.
func engineProbe(w *workload, in *ladderInput) (float64, float64, float64, float64, error) {
	q := cogra.MustParse(w.fleet[w.probe])
	timed := func(events []*cogra.Event, splitAllocs bool) (upd, adv time.Duration, advAllocs, total uint64, err error) {
		plan, err := core.NewPlan(q)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		eng := core.NewEngine(plan)
		m0 := memAllocs()
		for i, e := range events {
			if i == 0 || e.Time != events[i-1].Time {
				var a0 uint64
				if splitAllocs {
					a0 = memAllocs()
				}
				t0 := time.Now()
				if err := eng.AdvanceWatermark(e.Time); err != nil {
					return 0, 0, 0, 0, err
				}
				adv += time.Since(t0)
				if splitAllocs {
					advAllocs += memAllocs() - a0
				}
			}
			t0 := time.Now()
			if err := eng.Process(e); err != nil {
				return 0, 0, 0, 0, err
			}
			upd += time.Since(t0)
			if i%(drainEvery*batchLen) == 0 {
				eng.TakeResults()
			}
		}
		return upd, adv, advAllocs, memAllocs() - m0, nil
	}
	upd, adv, _, _, err := timed(in.ordered, false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	prefix := in.ordered[:min(8192, len(in.ordered))]
	_, _, advAllocs, total, err := timed(prefix, true)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n, np := float64(len(in.ordered)), float64(len(prefix))
	// memAllocs itself allocates nothing, so the rest of the prefix
	// pass's allocations belong to Process.
	return float64(upd) / n, float64(total-advAllocs) / np, float64(adv) / n, float64(advAllocs) / np, nil
}

// memAllocs returns the exact count of heap objects allocated so far
// (ReadMemStats flushes every P's allocation cache).
func memAllocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// table prints the per-layer self-time table of the ladder.
func (l *ladderOut) table(w *workload) {
	fmt.Printf("# ladder over %d events of %s, median of %d repetitions (ns/event; self = rung minus rung below)\n",
		l.events, w.name, l.reps)
	prev := 0.0
	top := median(l.rungNs[3])
	for i, name := range rungNames {
		v := median(l.rungNs[i])
		fmt.Printf("#   %-9s rung %9.1f  self %9.1f  share %5.1f%%\n", name, v, v-prev, 100*(v-prev)/top)
		prev = v
	}
	// The solo probe splits engine time into update and advance; the
	// runtime rung's self time is attributed to the two in that ratio.
	rtSelf := median(l.rungNs[2]) - median(l.rungNs[1])
	engine := l.updateNs + l.advanceNs
	fmt.Printf("#   probes (ns/event): resolve %.1f, update %.1f, advance %.1f, embedded push %.1f\n",
		l.resolveNs, l.updateNs, l.advanceNs, l.pushNs)
	fmt.Printf("#   runtime self time split by the probe: update %.1f%% of ladder, advance %.1f%% of ladder\n",
		100*rtSelf*l.updateNs/engine/top, 100*rtSelf*l.advanceNs/engine/top)
}
