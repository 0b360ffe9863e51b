package main

import (
	"fmt"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// workload is one traffic mix: a query fleet, the session options the
// tenant runs with, a seeded event stream and the open-loop rate.
type workload struct {
	name string
	why  string
	// fleet holds the query texts; fleet[probe] is followed over SSE.
	fleet []string
	probe int
	// window is the probe query's tumbling window length.
	window int64
	shared bool
	// jitter is the largest arrival delay JitterOrder adds; the session
	// runs WithSlack(jitter), which repairs it exactly (0: in order, no
	// reorder buffer).
	jitter int64
	// churnEvery is the number of closed-loop batches between two
	// unsubscribe/resubscribe pairs (0: no churn).
	churnEvery int
	// rate is the open-loop offered rate in events/s.
	rate float64
	// kind selects the stream generator.
	kind streamKind
}

type streamKind int

const (
	walkDense  streamKind = iota // M/X random walk, time advances every 4th event
	walkSparse                   // M/X random walk, time advances 8 ticks per event
	typedHot                     // 8 types, hot shared keys and cold type-local keys
)

// sessionOptions are the options the tenant's session (and every
// embedded replay of it) is built with.
func (w *workload) sessionOptions() []cogra.SessionOption {
	var opts []cogra.SessionOption
	if w.shared {
		opts = append(opts, cogra.WithSharedAggregation())
	}
	if w.jitter > 0 {
		opts = append(opts, cogra.WithSlack(w.jitter))
	}
	return opts
}

// slack is the reorder slack the session runs with.
func (w *workload) slack() int64 { return w.jitter }

// sharedReturns are the RETURN clauses of the fingerprint-equal fleet:
// eight projections of one union of aggregation specs.
var sharedReturns = [8]string{
	"COUNT(*)",
	"COUNT(M)",
	"SUM(M.v)",
	"AVG(M.v)",
	"MAX(M.v)",
	"MIN(M.v)",
	"COUNT(*), SUM(M.v)",
	"COUNT(*), AVG(M.v)",
}

func sharedFleet() []string {
	out := make([]string, len(sharedReturns))
	for i, ret := range sharedReturns {
		out[i] = "RETURN " + ret + " PATTERN M+ SEMANTICS skip-till-next-match " +
			"WHERE [key] AND M.v <= NEXT(M).v GROUP-BY key WITHIN 64 SLIDE 64"
	}
	return out
}

// steadyFleet is the type-grained fleet: query i aggregates the
// SEQ(S_i+, S_{i+1}) transition, so each query reads 2 of the 8 types.
func steadyFleet() []string {
	out := make([]string, 8)
	for i := range out {
		out[i] = fmt.Sprintf("RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S%d A+, S%d B) "+
			"SEMANTICS skip-till-any-match WHERE [key] GROUP-BY key WITHIN 256 SLIDE 256", i, (i+1)%8)
	}
	return out
}

// workloads lists every workload in the order BENCHMARK.json names
// them. The rates are fixed; the package doc says how they were chosen.
var workloads = []*workload{
	{
		name:   "dense-shared",
		why:    "~256 events per window: Kleene update and the sharing host dominate, wire decode weighs most",
		fleet:  sharedFleet(),
		window: 64,
		shared: true,
		rate:   200000,
		kind:   walkDense,
	},
	{
		name:   "sparse-shared",
		why:    "~8 events per window: window lifecycle, emit and GC dominate; the share monitor unshares",
		fleet:  sharedFleet(),
		window: 64,
		shared: true,
		rate:   24000,
		kind:   walkSparse,
	},
	{
		name:       "churn-jitter",
		why:        "jittered arrivals and query churn: reorder buffer, per-type routing and the control plane",
		fleet:      steadyFleet(),
		window:     256,
		jitter:     16,
		churnEvery: 64,
		rate:       90000,
		kind:       typedHot,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitMix is splitmix64: a tiny PRNG whose sequence does not depend on
// math/rand staying stable across Go releases.
type splitMix struct{ state uint64 }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// derive splits one seed into independent streams: the event stream,
// its jitter and the churn schedule each take their own.
func derive(seed int64, salt uint64) *splitMix {
	s := &splitMix{state: uint64(seed) ^ salt*0xD1B54A32D192ED03}
	s.next()
	return s
}

const (
	saltStream = 1
	saltJitter = 2
	saltChurn  = 3
)

// chunkLen is how many canonical events the source generates (and
// jitters) at a time. Disorder never crosses a chunk boundary; the
// session's slack still repairs every chunk exactly.
const chunkLen = 4096

// walkMax bounds the M/X random walk.
const walkMax = 200

// source produces a workload's stream in arrival order. With reuse set
// it recycles two pools of events (the caller must finish with a batch
// before asking for the one after the next); without, every event is a
// fresh object a session may retain.
type source struct {
	w      *workload
	rng    *splitMix
	jrng   *splitMix
	reuse  bool
	n      int64 // canonical events generated so far
	vals   [16]float64
	pools  [2][]*cogra.Event
	pool   int
	chunk  []*cogra.Event
	pos    int
	keySym []map[string]string // interned Sym maps, one per key
	typ    []string
}

func newSource(w *workload, seed int64, reuse bool) *source {
	s := &source{w: w, rng: derive(seed, saltStream), jrng: derive(seed, saltJitter), reuse: reuse}
	for i := range s.vals {
		s.vals[i] = 100 + float64(i)
	}
	switch w.kind {
	case walkDense, walkSparse:
		for k := 0; k < 16; k++ {
			s.keySym = append(s.keySym, map[string]string{"key": fmt.Sprintf("k%02d", k)})
		}
	case typedHot:
		// 64 hot keys every type shares, then 512 cold keys per type.
		for k := 0; k < 64; k++ {
			s.keySym = append(s.keySym, map[string]string{"key": fmt.Sprintf("k%d", k)})
		}
		for t := 0; t < 8; t++ {
			s.typ = append(s.typ, fmt.Sprintf("S%d", t))
			for k := 0; k < 512; k++ {
				s.keySym = append(s.keySym, map[string]string{"key": fmt.Sprintf("s%d-%d", t, k)})
			}
		}
	}
	if reuse {
		s.allocPools()
	}
	return s
}

// allocPools allocates both event pools up front, so a heap measurement
// taken later does not count them as server state.
func (s *source) allocPools() {
	for i := range s.pools {
		s.pools[i] = make([]*cogra.Event, chunkLen)
		for j := range s.pools[i] {
			// Insert once so the map's storage exists before any
			// measurement, not at the event's first use.
			s.pools[i][j] = &cogra.Event{Num: map[string]float64{"v": 0}}
		}
	}
}

// fill writes the next len(dst) arrival-order events into dst.
func (s *source) fill(dst []*cogra.Event) {
	for i := range dst {
		if s.pos == len(s.chunk) {
			s.nextChunk()
		}
		dst[i] = s.chunk[s.pos]
		s.pos++
	}
}

// take returns the next n arrival-order events.
func (s *source) take(n int) []*cogra.Event {
	out := make([]*cogra.Event, n)
	s.fill(out)
	return out
}

func (s *source) nextChunk() {
	var evs []*cogra.Event
	if s.reuse {
		s.pool ^= 1
		evs = s.pools[s.pool]
	} else {
		evs = make([]*cogra.Event, chunkLen)
		for i := range evs {
			evs[i] = &cogra.Event{Num: make(map[string]float64, 1)}
		}
	}
	for _, e := range evs {
		s.gen(e)
	}
	if s.w.jitter > 0 {
		evs, _ = diff.JitterOrder(evs, s.w.jitter, int64(s.jrng.next()))
	}
	s.chunk, s.pos = evs, 0
}

// gen overwrites e with the next canonical event. Sym maps are interned
// (nothing downstream of ingest writes event attributes); the Num map
// is e's own and is overwritten in place.
func (s *source) gen(e *cogra.Event) {
	i := s.n
	s.n++
	e.ID = i + 1
	clear(e.Num)
	r := s.rng
	switch s.w.kind {
	case walkDense, walkSparse:
		if s.w.kind == walkDense {
			e.Time = i / 4
		} else {
			e.Time = 8 * i
		}
		if r.next()%8 == 0 {
			e.Type, e.Sym = "X", nil
			e.Num["noise"] = 1
			return
		}
		k := r.next() % 16
		// A walk reflected into [0, walkMax]: the set of values a
		// stream carries stays fixed however long it runs.
		v := s.vals[k] + float64(r.next()%9) - 4
		if v < 0 {
			v = -v
		} else if v > walkMax {
			v = 2*walkMax - v
		}
		s.vals[k] = v
		e.Type, e.Sym = "M", s.keySym[k]
		e.Num["v"] = s.vals[k]
	case typedHot:
		e.Time = i / 4
		t := r.next() % 8
		e.Type = s.typ[t]
		e.Num["v"] = float64(r.next() % 1000)
		if r.next()%4 == 0 {
			e.Sym = s.keySym[64+int(t)*512+int(r.next()%512)]
		} else {
			e.Sym = s.keySym[r.next()%64]
		}
	}
}

// churnPlan is the seeded churn schedule: at the k-th churn point the
// fleet slot victims[k] is unsubscribed and resubscribed. The probe is
// never a victim.
type churnPlan struct {
	rng   *splitMix
	w     *workload
	picks []int
}

func newChurnPlan(w *workload, seed int64) *churnPlan {
	return &churnPlan{rng: derive(seed, saltChurn), w: w}
}

// victim returns the slot churned at churn point k.
func (c *churnPlan) victim(k int) int {
	for len(c.picks) <= k {
		v := int(c.rng.next() % uint64(len(c.w.fleet)-1))
		if v >= c.w.probe {
			v++
		}
		c.picks = append(c.picks, v)
	}
	return c.picks[k]
}
