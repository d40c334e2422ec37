package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/hashring"
	"mcdc/internal/metrics"
	"mcdc/internal/model"
)

// statelessInputs is the seeded model training set and the row pool the
// clients cycle through, drawn from one generator so the pool follows the
// model's clusters.
type statelessInputs struct {
	train *mcdc.Dataset
	pool  [][]int
	truth []int
}

func makeStatelessInputs(o options) statelessInputs {
	n := o.sizes.modelN
	all := mcdc.SyntheticDataset("assign-stateless", n+o.sizes.poolN, features, classes, o.seed)
	train := &mcdc.Dataset{Name: all.Name, Features: all.Features, Rows: all.Rows[:n], Labels: all.Labels[:n]}
	return statelessInputs{train: train, pool: all.Rows[n:], truth: all.Labels[n:]}
}

// expectedAssignments is what model.Assigner answers for every pool row.
func expectedAssignments(snap *model.Snapshot, pool [][]int) ([]model.Assignment, error) {
	asg := snap.NewAssigner()
	out := make([]model.Assignment, len(pool))
	for i, row := range pool {
		a, err := asg.Assign(row)
		if err != nil {
			return nil, err
		}
		a.Encoding = append([]int(nil), a.Encoding...) // the Assigner reuses its buffer
		out[i] = a
	}
	return out, nil
}

type statelessEnv struct {
	f     *fleet
	snap  *model.Snapshot
	want  []model.Assignment
	epoch int
}

func statelessSetup(o options, in statelessInputs, rec *recorder) (statelessEnv, error) {
	snap, err := trainModel(in.train)
	if err != nil {
		return statelessEnv{}, err
	}
	want, err := expectedAssignments(snap, in.pool)
	if err != nil {
		return statelessEnv{}, err
	}
	f, err := fleetSetup(o, snap, true, rec, "stateless", evenRows(modelName, in.pool), nil)
	return statelessEnv{f: f, snap: snap, want: want, epoch: snap.Epoch}, err
}

// statelessLoop sends the pool in chunks from every client until the phase
// ends, checking each reply against the expected assignments, and returns
// the phase with the number of failed requests and the served label of
// every pool row.
func statelessLoop(o options, e statelessEnv, pool [][]int, rec *recorder) (servePhase, int64, []int) {
	chunk := o.sizes.chunk
	nChunks := (len(pool) + chunk - 1) / chunk
	want := e.want
	if o.corrupt {
		want = append([]model.Assignment(nil), want...)
		want[0].Cluster++
	}
	lat := make([][]float64, o.clients)
	rows := make([]int, o.clients)
	bad := make([]int64, o.clients)
	seq := make([]int, o.clients)
	served := make([][]int, o.clients) // per client: pool row → served cluster
	for c := range served {
		served[c] = make([]int, len(pool))
		for i := range served[c] {
			served[c][i] = -1
		}
	}
	ctx := context.Background()
	ph := servePhase{requests: map[string]bool{}}
	mark := markUsage()
	ph.elapsed = closedLoop(o.clients, o.phase(), func(c int) {
		k := (c + o.clients*seq[c]) % nChunks
		lo, hi := k*chunk, min((k+1)*chunk, len(pool))
		trace := fmt.Sprintf("c%d-%d", c, seq[c])
		seq[c]++
		var s0 int64
		if rec != nil {
			s0 = rec.now()
		}
		t0 := time.Now()
		got, err := e.f.clients[c].AssignMany(client.WithRequestID(ctx, trace), modelName, pool[lo:hi])
		lat[c] = append(lat[c], ms(time.Since(t0)))
		if rec != nil {
			rec.add(trace, layerClient, "", 0, s0, rec.now())
		}
		rows[c] += hi - lo
		if err != nil || len(got) != hi-lo {
			bad[c]++
			return
		}
		for j, a := range got {
			w := want[lo+j]
			if a.Cluster != w.Cluster || a.Similarity != w.Similarity || a.Epoch != e.epoch || !equalInts(a.Encoding, w.Encoding) {
				bad[c]++
				return
			}
		}
		for j, a := range got {
			served[c][lo+j] = a.Cluster
		}
	})
	ph.use = mark.since()
	var failed int64
	for c := range lat {
		ph.lat = append(ph.lat, lat[c]...)
		ph.rows += rows[c]
		failed += bad[c]
		for s := 0; s < seq[c]; s++ {
			ph.requests[fmt.Sprintf("c%d-%d", c, s)] = true
		}
		for i, v := range served[c] {
			if v >= 0 {
				served[0][i] = v
			}
		}
	}
	return ph, failed, served[0]
}

// evenRows accepts a ring that places between 48% and 52% of the pool on
// each backend. The keys mirror the gateway's stateless ring key: the model
// name and the row's values.
func evenRows(modelName string, pool [][]int) placement {
	keys := make([]string, len(pool))
	for i, row := range pool {
		var b strings.Builder
		b.WriteString("r|" + modelName)
		for _, v := range row {
			b.WriteString("|" + strconv.Itoa(v))
		}
		keys[i] = b.String()
	}
	return func(ring *hashring.Ring, addrs []string) bool {
		n := 0
		for _, k := range keys {
			if ring.Get(k) == addrs[0] {
				n++
			}
		}
		share := float64(n) / float64(len(keys))
		return share >= 0.48 && share <= 0.52
	}
}

// servedARI is the ARI of the served labels against the generator's, over
// the pool rows that were served.
func servedARI(served, truth []int) float64 {
	var t, p []int
	for i, s := range served {
		if s >= 0 {
			t, p = append(t, truth[i]), append(p, s)
		}
	}
	ari, err := metrics.AdjustedRandIndex(t, p)
	if err != nil {
		return 0
	}
	return ari
}

func runStateless(o options) (*report, error) {
	rep := newReport()
	in := makeStatelessInputs(o)
	e, setup, err := setupRepeated(o.sizes.setupReps, func() (statelessEnv, error) {
		return statelessSetup(o, in, nil)
	}, func(e statelessEnv) { e.f.close() })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	if !e.f.placed {
		rep.notef("no backend ports gave the intended ring placement; placement is random in this run")
	}
	base, bad, served := statelessLoop(o, e, in.pool, nil)
	err = checkCounters(rep, e.f)
	e.f.close()
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(base.lat))
	rep.fail(bad, "stateless replies differ from model.Assigner or failed")
	rep.e2e["ari"] = servedARI(served, in.truth)
	fillPhase(rep, "AssignMany chunks", base.lat, base.rows, base.elapsed, base.use, o.clients)
	if !o.trace {
		return rep, nil
	}

	rec := newRecorder()
	e, err = statelessSetup(o, in, rec)
	if err != nil {
		return nil, err
	}
	defer e.f.close()
	traced, bad, _ := statelessLoop(o, e, in.pool, rec)
	if err := checkCounters(rep, e.f); err != nil {
		return nil, err
	}
	rep.attempted += int64(len(traced.lat))
	rep.fail(bad, "stateless replies differ from model.Assigner or failed")
	rep.layer["model.assign_us"] = assignReplayUs(e.snap, in.pool)
	return rep, fillTraced(o, rep, rec, e.f, base, traced)
}

// assignReplayUs times model.Assigner.Assign over the pool, five passes,
// and returns the median pass's time per row in µs.
func assignReplayUs(snap *model.Snapshot, pool [][]int) float64 {
	asg := snap.NewAssigner()
	var passes []float64
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		for _, row := range pool {
			if _, err := asg.Assign(row); err != nil {
				return 0
			}
		}
		passes = append(passes, float64(time.Since(t0))/1e3/float64(len(pool)))
	}
	return median(passes)
}
