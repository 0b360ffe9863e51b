package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one batch share batch;
// parent is the index+1 of the enclosing span (0: none).
type span struct {
	name   string
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	parent int32
	batch  int64
}

// maxSpans caps the spans a run keeps in memory; later spans are
// counted but not stored.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one nil check per call.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex // the results consumer traces from its own goroutine
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its handle for end (0 when nothing
// was recorded).
func (t *tracer) begin(name string, batch int64, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, batch: batch})
	return int32(len(t.spans))
}

// end closes the span begin returned.
func (t *tracer) end(h int32) {
	if t == nil || h == 0 {
		return
	}
	t.mu.Lock()
	t.spans[h-1].end = time.Since(t.epoch)
	t.mu.Unlock()
}

// record stores a span whose start and end were taken elsewhere.
func (t *tracer) record(name string, batch int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), batch: batch})
}

// write stores the spans as one line each — index, name, start and end
// in ns since the run's epoch, parent index (0: none) and batch ID.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(bw, "# index name start_ns end_ns parent batch (dropped %d)\n", t.dropped)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d %s %d %d %d %d\n", i+1, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.batch)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
