package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRuns is how many times a run sets the service up; setup_s is
	// the median, and only the last set-up carries the traffic.
	setupRuns = 41
	// warmDur is the closed-loop warm-up before any metric is taken.
	warmDur = 500 * time.Millisecond
	// closedSegDur and openSegDur are the segment lengths of the two
	// phases; throughput_eps is the median over closed segments.
	closedSegDur = 500 * time.Millisecond
	openSegDur   = time.Second
	// closedShare is the share of --seconds the closed loop takes; the
	// open loop takes the rest, so the rarest windows (churn-jitter's)
	// still give the p99 its 1000 samples.
	closedShare = 0.3
)

func main() {
	workload := flag.String("workload", "", "workload name: dense-shared, sparse-shared or churn-jitter")
	seed := flag.Int64("seed", 1, "seed for the streams, their jitter and the churn schedule")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "cogradbench:", err)
		os.Exit(1)
	}
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and the like, printed beside the value
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	procs := min(2, goruntime.NumCPU())
	goruntime.GOMAXPROCS(procs)
	closedDur := time.Duration(seconds * closedShare * float64(time.Second))
	openDur := time.Duration(seconds*float64(time.Second)) - closedDur
	if traced {
		// Half the budget goes to the ladder and probes.
		closedDur, openDur = closedDur/2, openDur/2
	}
	nClosed := max(2, int(closedDur/closedSegDur))
	nOpen := max(1, int(openDur/openSegDur))
	provenance(w, seed, procs, nClosed, nOpen, traced)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out, err := runE2E(w, seed, tr, nClosed, nOpen)
	if err != nil {
		return err
	}
	if traced {
		lad, err := runLadder(w, seed, tr, time.Duration(seconds/2*float64(time.Second)))
		if err != nil {
			return err
		}
		path := filepath.Join(".bench_build", "trace", w.name+".spans")
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("# spans: %d kept, %d dropped, written to %s\n", len(tr.spans), tr.dropped, path)
		lad.table(w)
		return report(out.result, layerMetrics(out, lad))
	}
	return report(out.result, out.endToEnd())
}

// provenance prints what a reader needs to reproduce the run.
func provenance(w *workload, seed int64, procs, nClosed, nOpen int, traced bool) {
	commit := "unknown (not a git checkout)"
	wd, _ := os.Getwd()
	if top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output(); err == nil && strings.TrimSpace(string(top)) == wd {
		if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	fmt.Printf("# workload %s (%s)\n", w.name, w.why)
	fmt.Printf("# commit %s, %s, GOMAXPROCS %d, nproc %d, cpu %q\n",
		commit, goruntime.Version(), procs, goruntime.NumCPU(), cpuModel())
	fmt.Printf("# seed %d, traced %v, set-ups %d, warm-up %v, closed loop %d x %v (%d frames of %d events in flight), open loop %d x %v at %.0f events/s offered\n",
		seed, traced, setupRuns, warmDur, nClosed, closedSegDur, closedInflight, batchLen, nOpen, openSegDur, w.rate)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runResult is the verdict line's correctness part.
type runResult struct {
	correct   bool
	attempted int64
	failed    int64
}

// report prints every metric as "name value unit" and then the verdict
// as the last line, one JSON object.
func report(res runResult, ms []metric) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]jm)}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		if m.note != "" {
			fmt.Printf("%s %g %s (%s)\n", m.name, m.value, m.unit, m.note)
		} else {
			fmt.Printf("%s %g %s\n", m.name, m.value, m.unit)
		}
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quantile returns the q-quantile (0..1) of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// pct is quantile over unsorted samples, 0 when there are none.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
