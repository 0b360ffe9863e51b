package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	cogra "repro"
	"repro/internal/fuzz/diff"
	"repro/internal/server"
)

type phase int

const (
	warmPhase phase = iota
	closedPhase
	openPhase
)

// segment is one stretch of a phase between two drained-pipeline
// points. Between segments, outside every timed interval, the follower
// is allowed to go quiet.
type segment struct {
	kind     phase
	traced   bool
	endBatch int64 // batches sent when the segment ended
	events   int64
	start    time.Time
	end      time.Time // last reply collected and Results polled
	allocs   uint64    // heap objects allocated in the segment
	gcCPU    float64   // GC CPU seconds in the segment
	cpu      float64   // total CPU seconds in the segment
	// probeRows is the probe's cumulative row count the reference
	// session produced by endBatch; its arrival ends the segment.
	probeRows int
}

type churnOp struct {
	batch int64 // churned before this batch was sent
	slot  int
}

// driver runs the phases of one workload run against a harness and
// keeps everything the reference check and the metrics need.
type driver struct {
	w     *workload
	seed  int64
	h     *harness
	tr    *tracer
	src   *source
	batch []*cogra.Event
	churn *churnPlan

	batches int64
	churns  []churnOp
	segs    []segment
	badReq  int64 // refused or errored ingest requests

	// mu orders the results consumer against churn: it guards the
	// subscription IDs in h.ids and everything below.
	mu        sync.Mutex
	digests   []u64log // fingerprints of the delivered rows, per slot
	badPoll   int64    // Results calls that returned an error
	resultsNs time.Duration
	resultRow int

	// Open-loop bookkeeping: nextEnd is the next probe window end not
	// yet closed by a sent event; closerOf maps a window end to the ID
	// of the event whose arrival closes it, due maps that event's ID to
	// the time it was due.
	nextEnd  int64
	closerOf map[int64]int64
	due      map[int64]time.Time
	lags     []float64 // open-loop generator lateness, ms

	ctrl      []float64 // churn round trips (Unsubscribe + Subscribe), ms
	subMs     []float64
	unsubMs   []float64
	sentAt    []time.Time // traced: when each in-flight frame was written
	replyWait []float64   // traced: frame written → reply collected, ms
}

func newDriver(w *workload, seed int64, h *harness, tr *tracer) *driver {
	d := &driver{
		w: w, seed: seed, h: h, tr: tr,
		src:      newSource(w, seed, true),
		batch:    make([]*cogra.Event, batchLen),
		churn:    newChurnPlan(w, seed),
		digests:  make([]u64log, len(w.fleet)),
		nextEnd:  w.window,
		closerOf: make(map[int64]int64),
		due:      make(map[int64]time.Time),
	}
	return d
}

// free releases the row logs once the run is checked.
func (d *driver) free() {
	for i := range d.digests {
		d.digests[i].free()
	}
	f := d.h.sse
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range []*u64log{&f.hashes, &f.at, &f.firstEnd, &f.firstAt} {
		l.free()
	}
}

// send generates the next batch and writes it as one frame.
func (d *driver) send(tr *tracer, due time.Time, open bool) error {
	d.src.fill(d.batch)
	d.trackClosers(due, open)
	sp := tr.begin("server.push", d.batches, 0)
	err := d.h.conn.PushAsync(tenantName, d.batch)
	if err == nil {
		err = d.h.conn.Flush()
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ingest frame %d: %w", d.batches, err)
	}
	if tr != nil {
		d.sentAt = append(d.sentAt, time.Now())
	}
	d.batches++
	return nil
}

// collect reads the oldest reply. A typed refusal counts as a failed
// request; a broken connection ends the run.
func (d *driver) collect(tr *tracer) error {
	before := d.h.conn.Inflight()
	n, err := d.h.conn.Collect()
	if d.h.conn.Inflight() == before {
		return fmt.Errorf("ingest reply: %w", err)
	}
	if tr != nil && len(d.sentAt) > 0 {
		now := time.Now()
		tr.record("server.reply_wait", d.batches-int64(before), d.sentAt[0], now)
		d.replyWait = append(d.replyWait, ms(now.Sub(d.sentAt[0])))
		d.sentAt = d.sentAt[1:]
	}
	if err != nil || n != batchLen {
		d.badReq++
	}
	return nil
}

func (d *driver) drainPipeline(tr *tracer) error {
	for d.h.conn.Inflight() > 0 {
		if err := d.collect(tr); err != nil {
			return err
		}
	}
	return nil
}

// poll delivers the available rows of every subscription the SSE
// follower does not carry.
func (d *driver) poll(tr *tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for slot, id := range d.h.ids {
		if slot == d.w.probe {
			continue
		}
		sp := tr.begin("server.results", -1, 0) // a poll belongs to no batch
		start := time.Now()
		rows, _, werr := d.h.srv.Results(tenantName, id)
		d.resultsNs += time.Since(start)
		tr.end(sp)
		d.resultRow += len(rows)
		if werr != nil {
			d.badPoll++
		}
		d.consume(slot, rows)
	}
}

// consume records delivered rows by their fingerprints. Caller holds mu.
func (d *driver) consume(slot int, rows []cogra.Result) {
	for _, r := range rows {
		d.digests[slot].add(rowHash(r))
	}
}

// startPolling runs the results consumer: an independent client that
// polls every pollInterval, so waiting on the shard for rows never
// holds up the generator. The returned stop waits for it to exit.
func (d *driver) startPolling(tr *tracer) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(pollInterval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				d.poll(tr)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// churnOne unsubscribes and resubscribes the next scheduled victim at a
// drained-pipeline point.
func (d *driver) churnOne(tr *tracer) error {
	if err := d.drainPipeline(tr); err != nil {
		return err
	}
	slot := d.churn.victim(len(d.churns))
	d.mu.Lock()
	defer d.mu.Unlock()
	sp := tr.begin("server.unsubscribe", d.batches, 0)
	start := time.Now()
	rows, werr := d.h.srv.Unsubscribe(tenantName, d.h.ids[slot])
	u := ms(time.Since(start))
	tr.end(sp)
	if werr != nil {
		return fmt.Errorf("unsubscribe slot %d: %w", slot, server.DecodeWireError(werr))
	}
	d.consume(slot, rows)
	sp = tr.begin("server.subscribe", d.batches, 0)
	start = time.Now()
	id, werr := d.h.srv.Subscribe(tenantName, d.w.fleet[slot], false)
	s := ms(time.Since(start))
	tr.end(sp)
	if werr != nil {
		return fmt.Errorf("resubscribe slot %d: %w", slot, server.DecodeWireError(werr))
	}
	d.h.ids[slot] = id
	d.churns = append(d.churns, churnOp{batch: d.batches, slot: slot})
	d.unsubMs = append(d.unsubMs, u)
	d.subMs = append(d.subMs, s)
	d.ctrl = append(d.ctrl, u+s)
	return nil
}

// trackClosers finds, for the batch about to be sent, the events whose
// arrival closes a probe window: the first event with time at or past
// the window end plus the slack (strictly past it when a reorder buffer
// runs, since the buffer holds events at exactly the boundary).
func (d *driver) trackClosers(due time.Time, open bool) {
	reach := d.w.slack()
	if reach > 0 {
		reach++
	}
	for _, e := range d.batch {
		for e.Time >= d.nextEnd+reach {
			if open {
				d.closerOf[d.nextEnd] = e.ID
				d.due[e.ID] = due
			}
			d.nextEnd += d.w.window
		}
	}
}

// closedSegment runs the closed loop for dur: closedInflight frames in
// flight, a reply collected before each further frame.
func (d *driver) closedSegment(kind phase, dur time.Duration, traced bool) error {
	tr := d.tracerIf(traced)
	first := d.batches
	seg := segment{kind: kind, traced: traced}
	c0 := readCounters()
	seg.start = time.Now()
	stop := d.startPolling(tr)
	for time.Since(seg.start) < dur {
		if d.w.churnEvery > 0 && d.batches > 0 && d.batches%int64(d.w.churnEvery) == 0 &&
			(len(d.churns) == 0 || d.churns[len(d.churns)-1].batch != d.batches) {
			if err := d.churnOne(tr); err != nil {
				stop()
				return err
			}
		}
		if err := d.send(tr, time.Time{}, false); err != nil {
			stop()
			return err
		}
		if d.h.conn.Inflight() >= closedInflight {
			if err := d.collect(tr); err != nil {
				stop()
				return err
			}
		}
	}
	return d.endSegment(&seg, first, c0, tr, stop)
}

// openSegment offers frames on a fixed schedule at the workload's rate
// for dur, whether or not the server keeps up.
func (d *driver) openSegment(dur time.Duration, traced bool) error {
	tr := d.tracerIf(traced)
	first := d.batches
	seg := segment{kind: openPhase, traced: traced}
	interval := time.Duration(float64(batchLen) / d.w.rate * float64(time.Second))
	c0 := readCounters()
	seg.start = time.Now()
	stop := d.startPolling(tr)
	for k := 0; ; k++ {
		due := seg.start.Add(time.Duration(k) * interval)
		if due.Sub(seg.start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		d.lags = append(d.lags, ms(time.Since(due)))
		if err := d.send(tr, due, true); err != nil {
			stop()
			return err
		}
		for d.h.conn.Inflight() > openInflight {
			if err := d.collect(tr); err != nil {
				stop()
				return err
			}
		}
	}
	return d.endSegment(&seg, first, c0, tr, stop)
}

func (d *driver) tracerIf(traced bool) *tracer {
	if traced {
		return d.tr
	}
	return nil
}

// endSegment drains the pipeline, delivers the rows, stops the clock
// and then, untimed, lets the follower go quiet.
func (d *driver) endSegment(seg *segment, first int64, c0 counters, tr *tracer, stopPolling func()) error {
	err := d.drainPipeline(tr)
	stopPolling()
	if err != nil {
		return err
	}
	d.poll(tr)
	seg.end = time.Now()
	c1 := readCounters()
	seg.allocs = c1.allocs - c0.allocs
	seg.gcCPU = c1.gcCPU - c0.gcCPU
	seg.cpu = c1.cpu - c0.cpu
	seg.endBatch = d.batches
	seg.events = (d.batches - first) * batchLen
	d.segs = append(d.segs, *seg)
	d.h.sse.quiet(20*time.Millisecond, 5*time.Second)
	return nil
}

// finish closes the tenant and delivers every remaining row.
func (d *driver) finish() error {
	if werr := d.h.srv.CloseTenant(tenantName); werr != nil {
		return fmt.Errorf("close tenant: %w", server.DecodeWireError(werr))
	}
	d.poll(nil)
	return d.h.sse.wait(60 * time.Second)
}

// checkResult is the outcome of comparing every delivered row with the
// reference replay.
type checkResult struct {
	rows     int64 // reference rows
	bad      int64 // rows missing, extra or differing
	firstBad string
}

// check replays the exact batches, churn points and options through an
// embedded cogra.Session, compares every slot's rows with what the
// service delivered, and fills in each segment's probe row count.
func (d *driver) check() (checkResult, error) {
	var res checkResult
	w := d.w
	src := newSource(w, d.seed, false)
	sess := cogra.NewSession(w.sessionOptions()...)
	queries := make([]*cogra.Query, len(w.fleet))
	subs := make([]*cogra.Subscription, len(w.fleet))
	for i, text := range w.fleet {
		q, err := cogra.Parse(text)
		if err != nil {
			return res, err
		}
		queries[i] = q
		if subs[i], err = sess.Subscribe(q); err != nil {
			return res, err
		}
	}
	pos := make([]int, len(w.fleet))
	got := func(slot, i int) (uint64, bool) {
		if slot == w.probe {
			if i < d.h.sse.hashes.len() {
				return d.h.sse.hashes.get(i), true
			}
			return 0, false
		}
		if i < d.digests[slot].len() {
			return d.digests[slot].get(i), true
		}
		return 0, false
	}
	compare := func(slot int, rows []cogra.Result) {
		for _, r := range rows {
			res.rows++
			h, ok := got(slot, pos[slot])
			if !ok || h != rowHash(r) {
				res.bad++
				if res.firstBad == "" {
					res.firstBad = fmt.Sprintf("slot %d row %d: reference %q, delivered row missing or different",
						slot, pos[slot], diff.Canon([]cogra.Result{r}))
				}
			}
			pos[slot]++
		}
	}
	drainAll := func() {
		for slot, sub := range subs {
			compare(slot, sub.Drain())
		}
	}
	churns, segs := d.churns, 0
	for b := int64(0); b < d.batches; b++ {
		for len(churns) > 0 && churns[0].batch == b {
			slot := churns[0].slot
			churns = churns[1:]
			compare(slot, subs[slot].Unsubscribe())
			if err := subs[slot].Err(); err != nil {
				return res, err
			}
			sub, err := sess.Subscribe(queries[slot])
			if err != nil {
				return res, err
			}
			subs[slot] = sub
		}
		if err := sess.PushBatch(src.take(batchLen)); err != nil {
			return res, fmt.Errorf("reference batch %d: %w", b, err)
		}
		if (b+1)%drainEvery == 0 {
			drainAll()
		}
		for segs < len(d.segs) && d.segs[segs].endBatch == b+1 {
			compare(w.probe, subs[w.probe].Drain())
			d.segs[segs].probeRows = pos[w.probe]
			segs++
		}
	}
	if err := sess.Close(); err != nil {
		return res, err
	}
	drainAll()
	for slot := range subs {
		n := d.digests[slot].len()
		if slot == w.probe {
			n = d.h.sse.hashes.len()
		}
		if extra := n - pos[slot]; extra > 0 {
			res.bad += int64(extra)
			if res.firstBad == "" {
				res.firstBad = fmt.Sprintf("slot %d: %d rows delivered beyond the reference", slot, extra)
			}
		}
	}
	return res, nil
}

// closedThroughputs returns events/s per closed-loop segment (traced
// or not as asked), each clocked from its first frame to its last
// reply with every row of the windows closed so far delivered: the
// Results polls, and the probe's last due row at the SSE client.
func (d *driver) closedThroughputs(traced bool) []float64 {
	var out []float64
	for _, s := range d.segs {
		if s.kind != closedPhase || s.traced != traced {
			continue
		}
		end := s.end
		if i := s.probeRows - 1; i >= 0 && i < d.h.sse.at.len() {
			if t := atEpoch(d.h.sse.at.get(i)); t.After(end) {
				end = t
			}
		}
		out = append(out, float64(s.events)/end.Sub(s.start).Seconds())
	}
	return out
}

// latencies returns the open-loop samples, ms, sorted: from the due
// time of the event whose arrival closes a probe window to the arrival
// of that window's first row at the SSE client. segP50 holds each open
// segment's median sample.
func (d *driver) latencies() (all, segP50 []float64) {
	var open []segment
	for _, s := range d.segs {
		if s.kind == openPhase {
			open = append(open, s)
		}
	}
	perSeg := make([][]float64, len(open))
	f := d.h.sse
	for i := 0; i < f.firstEnd.len(); i++ {
		id, ok := d.closerOf[int64(f.firstEnd.get(i))]
		if !ok {
			continue
		}
		due := d.due[id]
		v := ms(atEpoch(f.firstAt.get(i)).Sub(due))
		all = append(all, v)
		k := sort.Search(len(open), func(k int) bool { return open[k].start.After(due) }) - 1
		perSeg[k] = append(perSeg[k], v)
	}
	sort.Float64s(all)
	for _, xs := range perSeg {
		if len(xs) > 0 {
			segP50 = append(segP50, pct(xs, 0.5))
		}
	}
	return all, segP50
}

// counters are the process-wide runtime/metrics readings a segment
// differences.
type counters struct {
	allocs uint64
	gcCPU  float64
	cpu    float64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters() counters {
	metrics.Read(counterSamples)
	return counters{
		allocs: counterSamples[0].Value.Uint64(),
		gcCPU:  counterSamples[1].Value.Float64(),
		cpu:    counterSamples[2].Value.Float64(),
	}
}
