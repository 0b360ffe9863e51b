package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	cogra "repro"
	"repro/internal/server"
)

const (
	tenantName = "bench"
	// batchLen is the events per ingest frame, the routing-sized chunk
	// the repository's batch benches use.
	batchLen = 256
	// closedInflight is the closed loop's pipeline depth in frames.
	closedInflight = 8
	// openInflight is how many open-loop frames may await their reply
	// before the generator reads the oldest one.
	openInflight = 8
	// pollInterval is how often the results consumer polls the
	// subscriptions that are not followed over SSE.
	pollInterval = 10 * time.Millisecond
	// drainEvery is the number of batches between two result drains in
	// the embedded replays (reference, ladder, probes), which keeps
	// their result buffers small.
	drainEvery = 32
)

// harness is one set-up cograd instance driven from the same process:
// a TCP ingest listener, an HTTP listener for the SSE follower, one
// pipelined ingest connection and the fleet's subscriptions.
type harness struct {
	w      *workload
	srv    *server.Server
	tcpLn  net.Listener
	hs     *http.Server
	served sync.WaitGroup
	conn   *server.IngestConn
	ids    []int // live subscription ID per fleet slot
	sse    *follower

	// control holds the Subscribe round-trip times of the set-up, ms.
	control []float64
}

// setUp starts a server for w and brings it to the point where the
// first event can be sent: server.New, the ingest listener, the fleet
// subscribed and the ingest connection dialled. This is what setup_s
// times; followProbe attaches the SSE follower afterwards.
func setUp(w *workload) (*harness, error) {
	srv, err := server.New(server.Config{Shards: 1, SessionOptions: w.sessionOptions()})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	h := &harness{w: w, srv: srv}
	if h.tcpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	h.served.Add(1)
	go func() { defer h.served.Done(); srv.ServeTCP(h.tcpLn) }()
	for _, q := range w.fleet {
		start := time.Now()
		id, werr := srv.Subscribe(tenantName, q, false)
		h.control = append(h.control, ms(time.Since(start)))
		if werr != nil {
			h.tearDown()
			return nil, fmt.Errorf("subscribe %q: %w", q, server.DecodeWireError(werr))
		}
		h.ids = append(h.ids, id)
	}
	if h.conn, err = server.DialIngest(h.tcpLn.Addr().String()); err != nil {
		h.tearDown()
		return nil, err
	}
	return h, nil
}

// followProbe serves the HTTP surface and attaches the SSE follower to
// the probe subscription.
func (h *harness) followProbe() error {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.served.Add(1)
	go func() { defer h.served.Done(); h.hs.Serve(httpLn) }()
	h.sse, err = follow("http://"+httpLn.Addr().String(), h.ids[h.w.probe])
	return err
}

// tearDown stops everything setUp and followProbe started and waits
// for it.
func (h *harness) tearDown() {
	if h.sse != nil {
		h.sse.close()
	}
	if h.conn != nil {
		h.conn.Close()
	}
	h.srv.Drain()
	if h.hs != nil {
		h.hs.Close()
	}
	if h.tcpLn != nil {
		h.tcpLn.Close()
	}
	h.served.Wait()
}

// scrape reads this tenant's sample of a gauge from the server's own
// metrics handler, in process.
func (h *harness) scrape(name string) (float64, error) {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	prefix := fmt.Sprintf("%s{tenant=%q} ", name, tenantName)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no %s sample", name)
}

// follower is the SSE client on the probe subscription. It records
// every row's canonical hash and arrival time, and the arrival of each
// window's first row.
type follower struct {
	cancel context.CancelFunc
	tr     *http.Transport
	done   chan struct{}

	mu     sync.Mutex
	hashes u64log // canonical hash per row
	at     u64log // arrival per row, ns since epoch
	// firstEnd and firstAt record each window's first row: its window
	// end and arrival.
	firstEnd u64log
	firstAt  u64log
	bytes    int64
	ended    bool // the server sent the final "done" event
	err      error
}

// epoch anchors the arrival stamps the follower stores as integers.
var epoch = time.Now()

func sinceEpoch(t time.Time) uint64 { return uint64(t.Sub(epoch)) }

func atEpoch(ns uint64) time.Time { return epoch.Add(time.Duration(ns)) }

func follow(baseURL string, id int) (*follower, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{cancel: cancel, tr: &http.Transport{DisableCompression: true}, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/%s/results?id=%d&follow=sse", baseURL, tenantName, id), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: f.tr}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("sse follow: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("sse follow: http %d", resp.StatusCode)
	}
	go f.read(resp)
	return f, nil
}

func (f *follower) read(resp *http.Response) {
	defer close(f.done)
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	lastEnd := int64(-1 << 62)
	var event string
	var wr server.WireResult
	var line []byte
	for {
		var err error
		line, err = br.ReadSlice('\n')
		if err != nil {
			f.mu.Lock()
			if !f.ended && !errors.Is(err, context.Canceled) {
				f.err = err
			}
			f.mu.Unlock()
			return
		}
		now := time.Now()
		f.mu.Lock()
		f.bytes += int64(len(line))
		f.mu.Unlock()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")):
			switch event {
			case "result":
				wr = server.WireResult{}
				if err := json.Unmarshal(line[len("data: "):], &wr); err != nil {
					f.fail(fmt.Errorf("sse row: %w", err))
					return
				}
				h := wireHash(&wr)
				f.mu.Lock()
				f.hashes.add(h)
				f.at.add(sinceEpoch(now))
				if wr.End != lastEnd {
					f.firstEnd.add(uint64(wr.End))
					f.firstAt.add(sinceEpoch(now))
					lastEnd = wr.End
				}
				f.mu.Unlock()
			case "done":
				f.mu.Lock()
				f.ended = true
				f.mu.Unlock()
				return
			case "error":
				f.fail(fmt.Errorf("sse error event: %s", bytes.TrimSpace(line)))
				return
			}
		}
	}
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *follower) rows() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hashes.len()
}

// quiet waits until no row has arrived for gap (or until timeout): the
// pause between phases that keeps one phase's egress out of the next.
func (f *follower) quiet(gap, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	last := f.rows()
	for time.Now().Before(deadline) {
		time.Sleep(gap)
		n := f.rows()
		if n == last {
			return
		}
		last = n
	}
}

// wait blocks until the stream ended or timeout passed.
func (f *follower) wait(timeout time.Duration) error {
	select {
	case <-f.done:
	case <-time.After(timeout):
		return fmt.Errorf("sse follower: no final event within %v", timeout)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	if !f.ended {
		return fmt.Errorf("sse follower: stream ended without a done event")
	}
	return nil
}

func (f *follower) close() {
	f.cancel()
	<-f.done
	f.tr.CloseIdleConnections()
}

// rowHash fingerprints one result row by the fields diff.Compare
// compares exactly: window identity and bounds, group values, and each
// aggregate's count, validity and float bits (the float of an invalid
// aggregate carries no information and is left out, as on the wire).
// Spec texts are left out too: a slot's specs are fixed by its query.
func rowHash(r cogra.Result) uint64 {
	h := rowHead(r.Wid, r.Start, r.End, r.Group, len(r.Values))
	for _, v := range r.Values {
		h = valueHash(h, v.Count, v.F, v.Valid)
	}
	return h
}

// wireHash is rowHash of the row's JSON wire form.
func wireHash(r *server.WireResult) uint64 {
	h := rowHead(r.Wid, r.Start, r.End, r.Group, len(r.Values))
	for _, v := range r.Values {
		h = valueHash(h, v.Count, v.F, v.Valid)
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func rowHead(wid, start, end int64, group []string, nValues int) uint64 {
	h := hashU64(hashU64(hashU64(fnvOffset, uint64(wid)), uint64(start)), uint64(end))
	h = hashU64(h, uint64(len(group)))
	for _, g := range group {
		h = hashU64(h, uint64(len(g)))
		for i := 0; i < len(g); i++ {
			h = (h ^ uint64(g[i])) * fnvPrime
		}
	}
	return hashU64(h, uint64(nValues))
}

func valueHash(h, count uint64, f float64, valid bool) uint64 {
	var bits, v uint64
	if valid {
		bits, v = math.Float64bits(f), 1
	}
	return hashU64(hashU64(hashU64(h, count), bits), v)
}

// hashU64 folds v into an FNV-1a hash, byte by byte.
func hashU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * fnvPrime
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcNow forces a full collection and returns the live heap in bytes.
func gcNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// u64log is an append-only uint64 log in fixed chunks mapped outside
// the Go heap: however many rows a run logs, the collector's pacing and
// the live-heap measurement see only the service's own memory.
type u64log struct {
	chunks [][]uint64
	n      int
}

const logChunk = 8192

func (l *u64log) add(v uint64) {
	if l.n == len(l.chunks)*logChunk {
		b, err := syscall.Mmap(-1, 0, logChunk*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("mmap log chunk: %v", err))
		}
		l.chunks = append(l.chunks, unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), logChunk))
	}
	l.chunks[l.n/logChunk][l.n%logChunk] = v
	l.n++
}

func (l *u64log) get(i int) uint64 { return l.chunks[i/logChunk][i%logChunk] }

func (l *u64log) len() int { return l.n }

// free unmaps the chunks; the log is empty afterwards.
func (l *u64log) free() {
	for _, c := range l.chunks {
		syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), logChunk*8))
	}
	l.chunks, l.n = nil, 0
}
