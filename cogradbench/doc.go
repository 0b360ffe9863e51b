// Command cogradbench is the end-to-end benchmark of cograd, the COGRA
// network service. From the root of a checkout:
//
//	bash cogradbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It runs an in-process server.Server on loopback and drives it from
// the same process, with GOMAXPROCS at most 2: one tenant, one pipelined
// framed-TCP ingest connection (server.DialIngest), one SSE follower
// (/v1/{tenant}/results?follow=sse) on a probe subscription, and an
// independent results consumer that polls the other subscriptions
// through Server.Results every pollInterval. The seed derives
// every stream, its jitter and the churn schedule; the server only ever
// sees the generated events. Each run does four things in order:
//
//  1. Set-up, timed, repeated setupRuns times: server.New, the ingest
//     listener, fleet subscribe and ingest dial. The HTTP listener and
//     the SSE follower are attached after the last one, untimed.
//  2. A closed loop: closedInflight frames of batchLen events in flight,
//     a reply collected before each further frame, in segments.
//  3. An open loop at the workload's fixed offered rate, in segments.
//  4. Close the tenant, deliver every remaining row, and check every
//     row the client received against an embedded cogra.Session replay
//     of the same batches, slack and churn points (outside every timed
//     interval). Rows are compared by a fingerprint of exactly the
//     fields internal/fuzz/diff.Compare compares.
//
// The last line of standard output is one JSON object with the
// verdict (correct, attempted, failed) and the end-to-end metrics, or
// with --trace 1 the per-layer ones. Every metric is also printed as
// "name value unit" with its sample count, after provenance lines
// (commit, Go version, GOMAXPROCS, nproc, CPU, seed, phase lengths and
// offered rate).
//
// # Workloads
//
// dense-shared: the 8-query fingerprint-equal fleet (PATTERN M+
// SEMANTICS skip-till-next-match WHERE [key] AND M.v <= NEXT(M).v
// GROUP-BY key WITHIN 64 SLIDE 64, eight RETURN variants) with
// WithSharedAggregation, over an M/X random walk on 16 keys with time
// advancing every 4th event: about 256 events per window. The fastest
// workload. Pattern-grained Kleene update and the sharing host do most
// of the work, window open/close/emit is a small share, and wire decode
// weighs the most here.
//
// sparse-shared: the same fleet, options and stream shape, but time
// advances 8 ticks per event: about 8 events per window, under one per
// key, the density at which the share monitor unshares. Window
// lifecycle, sub-aggregator construction, emit and GC dominate while
// engine update is small. Density is the only difference from
// dense-shared.
//
// churn-jitter: the Steady8 fleet (8 type-grained SEQ(S_i+ A, S_{i+1} B)
// skip-till-any-match queries, equivalence and GROUP-BY on key, WITHIN
// 256 SLIDE 256) over 8 types with hot shared and cold type-local keys.
// Arrival order is jittered with diff.JitterOrder and the session runs
// the matching WithSlack. During the closed loop only, one query
// (never the probe) is unsubscribed and resubscribed every churnEvery
// batches at drained-pipeline points through Server.Unsubscribe and
// Server.Subscribe. The only workload where the reorder buffer and
// per-type routing across distinct plans work, with membership changes
// (compile, catalog, index rebuild, window flush) running beside
// ingest, so a data-plane gain that slows the control plane shows.
//
// The open-loop rates were set once, at about half the closed-loop
// throughput a 2-vCPU Xeon @ 2.10GHz VM sustains in its slower phases
// at the commit that added the benchmark (its closed-loop medians ranged
// over 380K-790K, 50K-66K and 180K-215K events/s across runs), and are
// never derived at run time.
//
// # End-to-end metrics
//
//   - throughput_eps: closed-loop events/s, the median over segments.
//     A segment's clock runs from its first frame to its last reply,
//     with every row of the windows closed so far delivered: polled
//     through Server.Results, and the probe's last due row (as counted
//     by the reference replay) arrived at the SSE client.
//   - latency_p50_ms, latency_p99_ms: open loop. latency_p50_ms is the
//     median over open-loop segments of each segment's median, so a
//     host stall confined to a few segments does not move it;
//     latency_p99_ms pools every sample. A sample runs from the
//     due time of the event whose arrival lets a probe window close
//     (the first event with time at least the window end plus the
//     slack; strictly beyond it when a reorder buffer runs) to the
//     arrival of that window's first row at the SSE client. Due times
//     live in a table keyed by event ID. A p99 with fewer than 10
//     samples beyond it fails the run. Only the p50 is bounded in
//     BENCHMARK.json: the p99 rests on the few samples a host stall
//     produces, and its run-to-run spread on a 2-vCPU VM is wider than
//     the largest bound the benchmark may set. It is printed.
//   - control_p50_ms: round trip of Server.Subscribe/Server.Unsubscribe.
//     On churn-jitter a sample is one churn, Unsubscribe then Subscribe;
//     the other workloads make no control calls after set-up, so there
//     a sample is one set-up Subscribe. Printed, not bounded: a set-up
//     Subscribe takes tens of microseconds, mostly goroutine wake-ups,
//     and on a 2-vCPU VM its median moves by more than the largest
//     bound from run to run. Churn cost is still gated, inside
//     churn-jitter's throughput_eps.
//   - peak_state_bytes: cograd_tenant_peak_bytes, scraped in process
//     from Server.Handler(): the paper's logical memory.
//   - state_heap_bytes: live heap after a forced GC at the end of the
//     closed loop minus the same after set-up. The benchmark keeps its
//     row fingerprints outside the Go heap, so neither this nor the
//     collector's pacing sees them.
//   - allocs_per_event: heap objects allocated per event over the
//     closed loop, whole process (runtime/metrics).
//   - setup_s: median set-up time.
//   - ops_failed_frac: (refused or errored ingest requests and Results
//     calls + rows missing or differing from the reference) / (frames
//     sent + reference rows). Printed, and carried by the verdict's
//     failed and attempted; it is 0 on a correct run, so it has no
//     bound.
//
// # Per-layer metrics and what they should move
//
// A traced run (--trace 1) spends half its time on the end-to-end path
// with spans around each client call into server (closed segments
// alternate untraced and traced), and half on a ladder that replays
// the same stream through cumulative rungs built from the modules'
// public functions: 1 decode ((*server.Decoder).DecodeIngest), 2
// + reorder ((*stream.Reorderer).Offer), 3 + runtime
// ((*runtime.Runtime).ProcessBatch, inline, same fleet and sharing
// setting), 4 + egress (drain and SSE-encode). A layer's self time is
// its rung minus the rung below. Probes run beside the ladder; the
// table splits the runtime rung's self time between update and advance
// in the ratio the solo engine probe measures. Spans are written to
// .bench_build/trace/<workload>.spans. Predictions, by metric:
//
//   - server.decode_ns_per_event, server.decode_allocs_per_event →
//     throughput_eps on dense-shared; flat on sparse-shared.
//   - server.reply_wait_ms_p50 (frame written → reply collected: shard
//     queueing) → latency_p50_ms on all workloads.
//   - server.results_ns_per_row (Server.Results round trip per row,
//     shard queueing included), server.sse_bytes_per_row,
//     server.sse_ns_per_row → latency_p50_ms, and throughput_eps on
//     sparse-shared, where there are the most rows per event.
//   - server.subscribe_ms, server.unsubscribe_ms → control_p50_ms on
//     churn-jitter; zero elsewhere.
//   - stream.reorder_ns_per_event, stream.reorder_peak_depth,
//     stream.late_dropped → throughput_eps on churn-jitter; zero
//     elsewhere (late_dropped is zero everywhere: the slack repairs the
//     jitter exactly).
//   - core.resolve_ns_per_event ((*core.Resolver).Resolve over the
//     fleet's catalog) → throughput_eps on churn-jitter.
//   - runtime.ns_per_event, runtime.allocs_per_event → throughput_eps
//     and allocs_per_event on all workloads.
//   - runtime.share_flips, runtime.shared_saved_frac (SharedSavedOps /
//     (events × (members−1))) → throughput_eps on sparse-shared; steady
//     on dense-shared.
//   - core.update_ns_per_event, core.update_allocs_per_event (solo
//     core.Engine.Process of the probe query, watermark already
//     advanced) → throughput_eps on dense-shared; small on
//     sparse-shared.
//   - window.advance_ns_per_event, window.advance_allocs_per_event (solo
//     core.Engine.AdvanceWatermark on every time change),
//     window.rows_per_event → throughput_eps, allocs_per_event and
//     latency_p50_ms on sparse-shared; small on dense-shared.
//   - cogra.push_ns_per_event, cogra.push_allocs_per_event (embedded
//     Session.PushBatch, the single-threaded baseline of the same job)
//     → throughput_eps everywhere; the gap to the TCP number is what
//     the service costs.
//   - go.gc_cpu_frac (/cpu/classes/gc/total) → throughput_eps on
//     sparse-shared.
//   - gen.lag_p99_ms (how late the open-loop generator ran) is a
//     validity guard and moves nothing; trace.overhead_frac is traced
//     against untraced closed-loop throughput.
package main
