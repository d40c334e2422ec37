// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads in a single process, checks every output the program
// returns, and prints one JSON result line:
//
//	train-8k            mcdc.Cluster on an 8000-row synthetic data set
//	session-replicated  JSON session assigns through a gateway into two
//	                    replicating backends that checkpoint every row
//	assign-stateless    binary 64-row AssignMany chunks through the same fleet
//
// The layers are measured from outside: the benchmark calls each module's
// public functions and wraps the public Handler()s and the gateway's
// backend transport. With -trace 0 it prints the end-to-end metrics of an
// untraced run; with -trace 1 it runs the same loop untraced and then
// traced, and prints the per-layer metrics plus the tracing overhead.
// README.md maps every per-layer metric to the end-to-end metric it moves.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload train-8k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// unitMetric names one metric and its unit.
type unitMetric struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, printed for every workload.
// An operation is one Cluster call (train-8k), one session assign
// (session-replicated) or one 64-row AssignMany chunk (assign-stateless).
var endToEnd = []unitMetric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_row", "us"},
	{"alloc_kb_per_row", "KiB"},
	{"ari", "ratio"},
}

// perLayer lists the metrics of a traced run, printed for every workload. A
// layer the workload never enters reads 0: that is the measured bypass.
var perLayer = []unitMetric{
	{"mcdc.self_s", "s"},
	{"core.mgcpl_s", "s"},
	{"core.came_s", "s"},
	{"core.mgcpl_levels", "count"},
	{"core.came_iters", "count"},
	{"client.self_ms", "ms"},
	{"gateway.self_ms", "ms"},
	{"gateway.forward_ms", "ms"},
	{"server.assign_self_ms", "ms"},
	{"server.replica_accept_ms", "ms"},
	{"server.checkpoints", "count"},
	{"server.ships", "count"},
	{"server.ship_failures", "count"},
	{"gateway.retries", "count"},
	{"model.ckpt_encode_us", "us"},
	{"model.ckpt_bytes", "bytes"},
	{"model.ckpt_savefile_us", "us"},
	{"model.assign_us", "us"},
	{"stream.add_us", "us"},
	{"stream.relearns", "count"},
	{"stream.relearn_ms", "ms"},
	{"runtime.gc_cycles", "count/krow"},
	{"runtime.gc_pause_ms", "ms/krow"},
	{"trace.overhead_pct", "%"},
}

// sizes fixes the input sizes of all workloads.
type sizes struct {
	trainN      int // train-8k rows
	modelN      int // rows the serving model is trained on
	poolN       int // distinct rows the stateless clients cycle through
	chunk       int // rows per stateless AssignMany request
	window      int // session stream window
	sessionRows int // rows per session, a multiple of window
	setupReps   int // fresh set-ups per run; setup_s is their median
}

var fullSizes = sizes{trainN: 8000, modelN: 2000, poolN: 4096, chunk: 64, window: 1000, sessionRows: 2000, setupReps: 5}

const (
	features = 10 // columns of every generated data set
	classes  = 3  // generator clusters, and the k sought by Cluster
	// ariFloor is the lowest train-8k ARI accepted as a correct clustering.
	ariFloor = 0.9
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	runDir   string // state dirs, the replayed checkpoint file and span dumps
	clients  int    // closed-loop clients of the serving workloads: one per CPU
	// corrupt alters one expected reply before the checks run, so a test can
	// see the mismatch counted as a failed operation.
	corrupt bool
}

func (o options) phase() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// report is what a workload measured.
type report struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // human-readable lines printed before the result
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.notef("FAIL (%d): %s", n, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(options) (*report, error){
	"train-8k":           runTrain,
	"session-replicated": runSessions,
	"assign-stateless":   runStateless,
}

// run executes one invocation and writes the notes and the result line.
func run(o options, out io.Writer) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	o.clients = runtime.NumCPU()
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		return err
	}
	rep, err := wl(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	catalog, values := endToEnd, rep.e2e
	if o.trace {
		catalog, values = perLayer, rep.layer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog {
		v := values[m.name] // a layer the workload bypasses reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s: %s\n", o.workload, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "train-8k, session-replicated or assign-stateless")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fixes every input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = print per-layer metrics from a traced run")
	flag.StringVar(&o.runDir, "rundir", ".bench_run", "directory for state dirs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.sizes = fullSizes
	abs, err := filepath.Abs(o.runDir)
	if err == nil {
		o.runDir = abs
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// ---- statistics ----

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint of xs (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail describes a latency sample: p99 and how many samples lie beyond it.
func tail(lat []float64) string {
	p99 := percentile(lat, 0.99)
	beyond := 0
	for _, x := range lat {
		if x > p99 {
			beyond++
		}
	}
	return fmt.Sprintf("p99 %.3f ms (%d beyond), n=%d", p99, beyond, len(lat))
}

// ---- runtime counters ----

// usage is what the process spent: bytes allocated, GC cycles, GC pause
// and CPU time (user plus system, all goroutines of the process).
type usage struct {
	allocB, gcs, pauseMs, cpuMs float64
}

func markUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{allocB: float64(m.TotalAlloc), gcs: float64(m.NumGC), pauseMs: float64(m.PauseTotalNs) / 1e6, cpuMs: ms(cpu)}
}

// since is the usage between u and now.
func (u usage) since() usage {
	n := markUsage()
	return usage{allocB: n.allocB - u.allocB, gcs: n.gcs - u.gcs, pauseMs: n.pauseMs - u.pauseMs, cpuMs: n.cpuMs - u.cpuMs}
}

// fillPhase sets the metrics every workload derives from its untraced
// phase: per-operation latency, per-row CPU and allocation, and GC per
// thousand rows. Throughput and the latency tail are printed but not
// reported as metrics (see README.md).
func fillPhase(rep *report, what string, lat []float64, rows int, elapsed time.Duration, use usage, clients int) {
	rep.e2e["latency_p50_ms"] = median(lat)
	if rows > 0 {
		r := float64(rows)
		rep.e2e["cpu_us_per_row"] = use.cpuMs * 1000 / r
		rep.e2e["alloc_kb_per_row"] = use.allocB / r / 1024
		rep.layer["runtime.gc_cycles"] = use.gcs / r * 1000
		rep.layer["runtime.gc_pause_ms"] = use.pauseMs / r * 1000
	}
	rep.notef("%d %s (%d rows) by %d clients in %.2fs: %.0f rows/s, p50 %.3f ms, p90 %.3f ms, %s",
		len(lat), what, rows, clients, elapsed.Seconds(), float64(rows)/elapsed.Seconds(), median(lat), percentile(lat, 0.9), tail(lat))
}

// ---- set-up and closed loop ----

// setupRepeated builds a workload's set-up reps times, keeping the last
// build and discarding the others, and returns the median set-up time.
func setupRepeated[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var cur T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // each set-up starts from the same heap state
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return cur, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			discard(cur)
		}
		cur = v
	}
	return cur, median(secs), nil
}

// closedLoop runs n clients until d has passed: each calls step with its
// index and waits for it before the next call. It returns the wall time from
// the start to the end of the last call.
func closedLoop(n int, d time.Duration, step func(c int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) {
				step(c)
			}
		}(c)
	}
	for c := 0; c < n; c++ {
		<-done
	}
	return time.Since(start)
}
