package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"mcdc"
	"mcdc/internal/core"
	"mcdc/internal/metrics"
)

// trainFamily is how many data sets train-8k cycles through: few enough
// that a 25-second phase clusters each of them at least once.
const trainFamily = 8

// panel is train-8k's fixed family of data sets, SyntheticDataset(n=8000,
// d=10, k=3) with generator seeds 1…trainFamily, taken in an order the
// workload seed rotates. Cluster's cost moves by up to 3× from one data set
// to the next, so drawing the data sets from the workload seed would make
// the run-to-run spread the spread of the data; a fixed family keeps every
// run on the same data and leaves the seed the order of the calls.
type panel struct {
	offset int
	ds     []*mcdc.Dataset
}

func newPanel(o options) *panel {
	p := &panel{offset: int(uint64(o.seed) % trainFamily)}
	for j := 0; j < trainFamily; j++ {
		p.ds = append(p.ds, mcdc.SyntheticDataset("train-8k", o.sizes.trainN, features, classes, int64(j+1)))
	}
	return p
}

// family returns the family index of the i-th call of a phase.
func (p *panel) family(i int) int { return (i + p.offset) % trainFamily }

// trainCall is one Cluster call of a phase.
type trainCall struct {
	idx    int     // family index of the data set
	ms     float64 // wall time
	use    usage   // what the process spent during the call
	labels []int
	err    error
	replay *replay // the traced phase's layered replay of the same data set
}

// trainRun is what one closed loop of Cluster calls saw.
type trainRun struct {
	calls   []trainCall
	elapsed time.Duration
	use     usage
}

func (tr trainRun) latencies() []float64 {
	var out []float64
	for _, c := range tr.calls {
		if c.err == nil {
			out = append(out, c.ms)
		}
	}
	return out
}

// pass summarises the phase as one balanced pass over the family: each data
// set clustered in the phase counts once, with the median of its calls'
// wall time, CPU and allocation. Which data sets a phase repeats depends on
// where the seed starts it and on how many calls fit, so statistics over
// the raw calls would move with the phase's mix of cheap and dear data sets.
// It returns the median call time in ms, the mean CPU and allocation per
// call, and how many data sets the phase covered.
func (tr trainRun) pass() (p50Ms, cpuMs, allocB float64, covered int) {
	type perSet struct{ ms, cpu, alloc []float64 }
	sets := map[int]*perSet{}
	for _, c := range tr.calls {
		if c.err != nil {
			continue
		}
		s := sets[c.idx]
		if s == nil {
			s = &perSet{}
			sets[c.idx] = s
		}
		s.ms = append(s.ms, c.ms)
		s.cpu = append(s.cpu, c.use.cpuMs)
		s.alloc = append(s.alloc, c.use.allocB)
	}
	var ms, cpu, alloc []float64
	for _, s := range sets {
		ms = append(ms, median(s.ms))
		cpu = append(cpu, median(s.cpu))
		alloc = append(alloc, median(s.alloc))
	}
	return median(ms), mean(cpu), mean(alloc), len(sets)
}

// replay is Cluster split into its core layers.
type replay struct {
	labels       []int
	mgcpl, came  time.Duration
	levels, iter int
}

// layeredCluster replays Cluster layer by layer: core.PooledEncoding then
// core.RunCAME on one rng seeded like Cluster's default (WithSeed 1), with
// every other option at the library default. With a recorder it records a
// "replay" span with the two layers as children under the given trace id.
func layeredCluster(ds *mcdc.Dataset, rec *recorder, trace string) (replay, error) {
	rows, card := ds.Rows, ds.Cardinalities()
	rng := rand.New(rand.NewSource(1))
	var t0, t1 int64
	if rec != nil {
		t0 = rec.now()
	}
	start := time.Now()
	enc, _, err := core.PooledEncoding(rows, card, core.MGCPLConfig{Rand: rng}, 0)
	if err != nil {
		return replay{}, err
	}
	mid := time.Now()
	if rec != nil {
		t1 = rec.now()
	}
	ca, err := core.RunCAME(enc, core.CAMEConfig{K: classes, Rand: rng})
	if err != nil {
		return replay{}, err
	}
	came := time.Since(mid)
	if rec != nil {
		t2 := rec.now()
		root := rec.add(trace, "replay", "", 0, t0, t2)
		rec.add(trace, "core.mgcpl", "", root, t0, t1)
		rec.add(trace, "core.came", "", root, t1, t2)
	}
	return replay{labels: ca.Labels, mgcpl: mid.Sub(start), came: came, levels: len(enc[0]), iter: ca.Iters}, nil
}

// clusterLoop calls Cluster from one client until the phase ends, each call
// on the next data set of the panel. Cluster already spreads its work over
// every CPU, so a second concurrent caller would make each call's time
// depend on which other call it overlapped; alone, a call's time, CPU and
// allocation are its own. With a recorder each call is followed by the
// layered replay of its data set.
func clusterLoop(o options, p *panel, rec *recorder) trainRun {
	var tr trainRun
	next := 0
	mark := markUsage()
	tr.elapsed = closedLoop(1, o.phase(), func(int) {
		seq := next
		next++
		call := trainCall{idx: p.family(seq)}
		ds := p.ds[call.idx]
		trace := fmt.Sprintf("call-%d", seq)
		var s0 int64
		if rec != nil {
			s0 = rec.now()
		}
		u0 := markUsage()
		t0 := time.Now()
		res, err := mcdc.Cluster(ds, classes)
		call.ms, call.err = ms(time.Since(t0)), err
		call.use = u0.since()
		if err == nil {
			call.labels = res.Labels
		}
		if rec != nil {
			rec.add(trace, "mcdc.Cluster", "", 0, s0, rec.now())
			rp, err := layeredCluster(ds, rec, trace)
			if err != nil && call.err == nil {
				call.err = fmt.Errorf("layered replay: %w", err)
			}
			call.replay = &rp
		}
		tr.calls = append(tr.calls, call)
	})
	tr.use = mark.since()
	return tr
}

func runTrain(o options) (*report, error) {
	rep := newReport()
	p, setup, err := setupRepeated(o.sizes.setupReps, func() (*panel, error) {
		return newPanel(o), nil
	}, func(*panel) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	base := clusterLoop(o, p, nil)
	lat := base.latencies()
	fillPhase(rep, "Cluster calls", lat, len(lat)*o.sizes.trainN, base.elapsed, base.use, 1)
	p50, cpuMs, allocB, covered := base.pass()
	rep.e2e["latency_p50_ms"] = p50
	rep.e2e["cpu_us_per_row"] = cpuMs * 1000 / float64(o.sizes.trainN)
	rep.e2e["alloc_kb_per_row"] = allocB / float64(o.sizes.trainN) / 1024
	rep.notef("one balanced pass over %d of %d data sets: p50 %.3f ms, %.3f us CPU and %.4f KiB allocated per row",
		covered, trainFamily, p50, rep.e2e["cpu_us_per_row"], rep.e2e["alloc_kb_per_row"])
	refs := map[int]replay{}
	var rec *recorder
	var traced trainRun
	if o.trace {
		// The traced phase replays its data sets inline; checking it first
		// leaves fewer replays for the untraced phase's check.
		rec = newRecorder()
		traced = clusterLoop(o, p, rec)
		if _, err := checkTrain(o, rep, p, traced, refs); err != nil {
			return nil, err
		}
	}
	ari, err := checkTrain(o, rep, p, base, refs)
	if err != nil {
		return nil, err
	}
	rep.e2e["ari"] = ari
	if !o.trace {
		return rep, nil
	}

	baseMs := map[int]float64{}
	for _, c := range base.calls {
		baseMs[c.idx] = c.ms
	}
	var mg, ca, self, share, ratio []float64
	for _, c := range traced.calls {
		if c.err != nil || c.replay == nil {
			continue
		}
		r := c.replay
		mg = append(mg, r.mgcpl.Seconds())
		ca = append(ca, r.came.Seconds())
		sf := c.ms/1000 - r.mgcpl.Seconds() - r.came.Seconds()
		self = append(self, sf)
		share = append(share, sf/(c.ms/1000))
		if b, ok := baseMs[c.idx]; ok {
			ratio = append(ratio, c.ms/b)
		}
	}
	rep.layer["core.mgcpl_s"] = median(mg)
	rep.layer["core.came_s"] = median(ca)
	rep.layer["mcdc.self_s"] = median(self)
	if r, ok := refs[0]; ok {
		rep.layer["core.mgcpl_levels"] = float64(r.levels)
		rep.layer["core.came_iters"] = float64(r.iter)
	}
	if len(ratio) > 0 {
		// Per data set, traced call against the untraced call on the same data.
		rep.layer["trace.overhead_pct"] = (median(ratio) - 1) * 100
	}
	// The replay must account for Cluster: what is left for the mcdc layer
	// itself (validation, result assembly) stays within a tenth of a call.
	if s := median(share); s > 0.1 || s < -0.1 {
		rep.fail(1, "core layers account for %.1f%% of a Cluster call, outside 90–110%%", (1-s)*100)
	}
	rep.notef("traced: %d calls; replay mgcpl %.3fs + came %.4fs; mcdc self %.4fs (%.1f%% of a call); overhead %.1f%%",
		len(mg), median(mg), median(ca), median(self), median(share)*100, rep.layer["trace.overhead_pct"])
	return rep, rec.dump(filepath.Join(o.runDir, "spans-train-8k.json"), nil)
}

// replayAll fills refs with the layered replay of every data set the phase
// clustered, taking a traced call's own replay where there is one and
// running the others on one goroutine per client.
func replayAll(o options, p *panel, tr trainRun, refs map[int]replay) error {
	var todo []int
	queued := map[int]bool{}
	for _, c := range tr.calls {
		if _, ok := refs[c.idx]; ok || queued[c.idx] || c.err != nil {
			continue
		}
		if c.replay != nil {
			refs[c.idx] = *c.replay
			continue
		}
		queued[c.idx] = true
		todo = append(todo, c.idx)
	}
	out := make([]replay, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += o.clients {
				out[i], errs[i] = layeredCluster(p.ds[todo[i]], nil, "")
			}
		}(w)
	}
	wg.Wait()
	for i, idx := range todo {
		if errs[i] != nil {
			return fmt.Errorf("layered replay of data set %d: %w", idx, errs[i])
		}
		refs[idx] = out[i]
	}
	return nil
}

// checkTrain counts every Cluster call whose labels differ from the layered
// replay of its data set as failed, and every call whose ARI against the
// generator's labels falls below the floor. It returns the mean ARI. refs
// caches replays by data set across phases; a traced call brings its own.
func checkTrain(o options, rep *report, p *panel, tr trainRun, refs map[int]replay) (float64, error) {
	if err := replayAll(o, p, tr, refs); err != nil {
		return 0, err
	}
	var aris []float64
	for i, c := range tr.calls {
		rep.attempted++
		if c.err != nil {
			rep.fail(1, "Cluster on data set %d: %v", c.idx, c.err)
			continue
		}
		want := refs[c.idx].labels
		if o.corrupt && i == 0 {
			want = append([]int(nil), want...)
			want[0] = (want[0] + 1) % classes
		}
		if !equalInts(c.labels, want) || (c.replay != nil && !equalInts(c.replay.labels, want)) {
			rep.fail(1, "Cluster labels on data set %d differ from the layered replay", c.idx)
		}
		ari, err := metrics.AdjustedRandIndex(p.ds[c.idx].Labels, c.labels)
		if err != nil || ari < ariFloor {
			rep.fail(1, "ARI %.4f on data set %d below the floor %.2f (%v)", ari, c.idx, ariFloor, err)
		}
		aris = append(aris, ari)
	}
	return mean(aris), nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
