package main

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	cogra "repro"
	"repro/internal/fuzz/diff"
	"repro/internal/server"
)

// TestStreamSeeded pins that one seed determines each workload's
// stream, its jitter and its churn schedule, and that another seed
// changes them.
func TestStreamSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := streamDigest(w, 7, 8192), streamDigest(w, 7, 8192)
		if a != b {
			t.Errorf("%s: seed 7 gave two stream digests %x and %x", w.name, a, b)
		}
		if c := streamDigest(w, 8, 8192); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream digest %x", w.name, a)
		}
	}
}

// TestRowHashMatchesDiff pins that the row fingerprint agrees with
// diff.Compare on real rows: identical rows hash alike on both the
// engine and the wire form, and a row diff.Compare tells apart hashes
// apart.
func TestRowHashMatchesDiff(t *testing.T) {
	for _, w := range workloads {
		rows := replayRows(t, w, 4096)
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", w.name)
		}
		for _, r := range rows[:min(64, len(rows))] {
			wr := server.ToWireResult(r)
			if rowHash(r) != wireHash(&wr) {
				t.Fatalf("%s: engine and wire hashes differ for %s", w.name, diff.Canon([]cogra.Result{r}))
			}
			bad := r
			bad.Values = append(bad.Values[:0:0], r.Values...)
			bad.Values[0].Count++
			if diff.Compare([]cogra.Result{bad}, []cogra.Result{r}, 0) == "" {
				t.Fatalf("%s: diff.Compare missed the corruption", w.name)
			}
			if rowHash(bad) == rowHash(r) {
				t.Fatalf("%s: corrupted row hashes like the original", w.name)
			}
		}
	}
}

// replayRows runs a workload's fleet embedded over its first n events.
func replayRows(t *testing.T, w *workload, n int) []cogra.Result {
	t.Helper()
	sess := cogra.NewSession(w.sessionOptions()...)
	var subs []*cogra.Subscription
	for _, q := range w.fleet {
		sub, err := sess.Subscribe(cogra.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if err := sess.PushBatch(newSource(w, 1, false).take(n)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var out []cogra.Result
	for _, sub := range subs {
		out = append(out, sub.Drain()...)
	}
	return out
}

// TestCheckCatchesCorruptedRow drives each workload briefly through the
// service, both loops and the close, checks that every delivered row
// matches the reference, and then that corrupting one delivered row —
// polled or followed over SSE — is caught as exactly one failure.
func TestCheckCatchesCorruptedRow(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			h, err := setUp(w)
			if err != nil {
				t.Fatal(err)
			}
			defer h.tearDown()
			if err := h.followProbe(); err != nil {
				t.Fatal(err)
			}
			d := newDriver(w, 5, h, nil)
			defer d.free()
			// Run the closed loop until it has churned, where the
			// workload churns.
			for i := 0; i == 0 || w.churnEvery > 0 && len(d.churns) == 0 && i < 50; i++ {
				if err := d.closedSegment(closedPhase, 200*time.Millisecond, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.openSegment(200*time.Millisecond, false); err != nil {
				t.Fatal(err)
			}
			if err := d.finish(); err != nil {
				t.Fatal(err)
			}
			if w.churnEvery > 0 && len(d.churns) == 0 {
				t.Fatalf("no churn in %d batches", d.batches)
			}
			chk, err := d.check()
			if err != nil {
				t.Fatal(err)
			}
			if chk.bad != 0 || d.badReq != 0 || d.badPoll != 0 {
				t.Fatalf("clean run: %d bad rows (%s), %d bad requests, %d bad polls", chk.bad, chk.firstBad, d.badReq, d.badPoll)
			}
			if chk.rows == 0 {
				t.Fatal("clean run checked no rows")
			}

			polled := (w.probe + 1) % len(w.fleet)
			for _, log := range []*u64log{&d.digests[polled], &h.sse.hashes} {
				if log.len() == 0 {
					t.Fatal("no delivered rows to corrupt")
				}
				log.chunks[0][log.len()/2%logChunk] ^= 1
				chk, err := d.check()
				log.chunks[0][log.len()/2%logChunk] ^= 1
				if err != nil {
					t.Fatal(err)
				}
				if chk.bad != 1 {
					t.Fatalf("one corrupted row counted as %d failures", chk.bad)
				}
			}
		})
	}
}

// streamDigest fingerprints the first n events of a workload's
// arrival-order stream and its first churn victims, for the seeding
// test.
func streamDigest(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	src := newSource(w, seed, true)
	batch := make([]*cogra.Event, 256)
	var buf []byte
	for done := 0; done < n; done += len(batch) {
		src.fill(batch)
		for _, e := range batch {
			buf = fmt.Appendf(buf[:0], "%d %d %s %v %v|", e.ID, e.Time, e.Type, e.Sym, e.Num)
			h.Write(buf)
		}
	}
	cp := newChurnPlan(w, seed)
	for k := 0; k < 16; k++ {
		fmt.Fprintf(h, "c%d", cp.victim(k))
	}
	return h.Sum64()
}
