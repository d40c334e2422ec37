package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/core"
	"mcdc/internal/hashring"
	"mcdc/internal/metrics"
	"mcdc/internal/model"
	"mcdc/internal/stream"
)

// sessionPlan is one session a client streams: its id, its stream seed and
// its rows with the generator's labels, plus what the timed phase got back.
type sessionPlan struct {
	id    string
	seed  int64
	rows  [][]int
	truth []int

	replies []client.Assignment
	ok      []bool   // reply i arrived without error
	reqIDs  []string // request id of reply i
}

// mix derives a non-zero seed from the workload seed and a position, so
// every session's id, stream seed and rows are a pure function of the
// workload seed.
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
	}
	return int64(x>>1) | 1
}

func planSession(o options, c, i int) *sessionPlan {
	id := fmt.Sprintf("bench-%d-%d-%d", uint64(o.seed), c, i)
	ds := mcdc.SyntheticDataset(id, o.sizes.sessionRows, features, classes, mix(o.seed, 1, int64(c), int64(i)))
	return &sessionPlan{id: id, seed: mix(o.seed, 2, int64(c), int64(i)), rows: ds.Rows, truth: ds.Labels}
}

func (p *sessionPlan) create(ctx context.Context, c *client.Client, window int) error {
	return c.CreateSession(ctx, p.id, modelName, client.SessionConfig{Window: window, Seed: p.seed})
}

// sessionClient is one closed-loop client's session sequence.
type sessionClient struct {
	plans  []*sessionPlan
	next   int // next row of the last plan
	seq    int
	lat    []float64
	failed bool // a session could not be created; the client stops
}

// sessionLoop streams rows into every client's sessions until the phase
// ends. A client whose session has received all its rows creates its next
// session (one more multiple of the window) and goes on.
func sessionLoop(o options, f *fleet, scs []*sessionClient, rec *recorder) servePhase {
	ph := servePhase{requests: map[string]bool{}}
	ctx := context.Background()
	mark := markUsage()
	ph.elapsed = closedLoop(o.clients, o.phase(), func(c int) {
		sc := scs[c]
		if sc.failed {
			time.Sleep(time.Millisecond)
			return
		}
		p := sc.plans[len(sc.plans)-1]
		if sc.next == len(p.rows) {
			p = planSession(o, c, len(sc.plans))
			if err := p.create(ctx, f.clients[c], o.sizes.window); err != nil {
				sc.failed = true
				return
			}
			sc.plans = append(sc.plans, p)
			sc.next = 0
		}
		trace := fmt.Sprintf("c%d-%d", c, sc.seq)
		sc.seq++
		var s0 int64
		if rec != nil {
			rec.active.Store(p.id, trace)
			s0 = rec.now()
		}
		t0 := time.Now()
		a, err := f.clients[c].AssignSession(client.WithRequestID(ctx, trace), p.id, p.rows[sc.next])
		sc.lat = append(sc.lat, ms(time.Since(t0)))
		if rec != nil {
			rec.add(trace, layerClient, "", 0, s0, rec.now())
		}
		p.replies = append(p.replies, a)
		p.ok = append(p.ok, err == nil)
		p.reqIDs = append(p.reqIDs, trace)
		sc.next++
	})
	ph.use = mark.since()
	for _, sc := range scs {
		ph.lat = append(ph.lat, sc.lat...)
		for _, p := range sc.plans {
			ph.rows += len(p.replies)
			for _, t := range p.reqIDs {
				ph.requests[t] = true
			}
		}
	}
	return ph
}

// replayTiming collects the in-process replay's layer timings.
type replayTiming struct {
	dir                      string
	addUs, snapUs            []float64
	saveUs, fileUs, ckptSize []float64
	relearnMs                []float64
}

// replaySession feeds the session's rows to an in-process stream.Clusterer
// configured like the backend's, snapshotting after the create and after
// every row as replicated mode does, and returns how many replies differ
// from it. With timing it also times Add and Snapshot on every row, and the
// checkpoint encode and file write on every eighth.
func replaySession(o options, p *sessionPlan, card []int, t *replayTiming) (int, error) {
	c, err := stream.NewClusterer(stream.Config{
		Cardinalities: card,
		WindowSize:    o.sizes.window,
		MGCPL:         core.MGCPLConfig{Rand: rand.New(rand.NewSource(p.seed))},
	})
	if err != nil {
		return 0, err
	}
	c.Snapshot()
	bad := 0
	epoch := 0
	var buf bytes.Buffer
	for i := range p.replies {
		t0 := time.Now()
		a, err := c.Add(p.rows[i])
		t1 := time.Now()
		st := c.Snapshot()
		t2 := time.Now()
		if err != nil {
			return bad, err
		}
		if got := p.replies[i]; !p.ok[i] || got.Cluster != a.Cluster || got.Similarity != a.Similarity || got.Epoch != a.ModelEpoch {
			bad++
		}
		if t == nil {
			continue
		}
		if a.ModelEpoch != epoch {
			epoch = a.ModelEpoch
			t.relearnMs = append(t.relearnMs, ms(t1.Sub(t0)))
		} else {
			t.addUs = append(t.addUs, float64(t1.Sub(t0))/1e3)
		}
		t.snapUs = append(t.snapUs, float64(t2.Sub(t1))/1e3)
		if i%8 != 0 {
			continue
		}
		// The backend stamps the replication fields before it saves.
		st.LastReqID, st.LastRow = p.reqIDs[i], p.rows[i]
		st.LastCluster, st.LastSimilarity, st.LastModelEpoch = a.Cluster, a.Similarity, a.ModelEpoch
		buf.Reset()
		t3 := time.Now()
		if err := st.Save(&buf); err != nil {
			return bad, err
		}
		t4 := time.Now()
		if err := st.SaveFile(filepath.Join(t.dir, "replay.ckpt")); err != nil {
			return bad, err
		}
		t.saveUs = append(t.saveUs, float64(t4.Sub(t3))/1e3)
		t.fileUs = append(t.fileUs, float64(time.Since(t4))/1e3)
		t.ckptSize = append(t.ckptSize, float64(buf.Len()))
	}
	return bad, nil
}

// checkSessions replays every session of the phase, counts mismatched or
// failed replies as failed operations, and returns the ARI of the replies
// against the generator's labels: per session and model epoch ≥ 1 with at
// least two rows, weighted by rows (epoch 0 is the single provisional
// cluster before the first relearn).
func checkSessions(o options, rep *report, scs []*sessionClient, card []int, t *replayTiming) (float64, error) {
	if o.corrupt && len(scs[0].plans[0].replies) > 0 {
		scs[0].plans[0].replies[0].Similarity += 1
	}
	var wsum, n float64
	for c, sc := range scs {
		if sc.failed {
			rep.fail(1, "client %d could not create its next session", c)
		}
		for _, p := range sc.plans {
			rep.attempted += int64(len(p.replies))
			bad, err := replaySession(o, p, card, t)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", p.id, err)
			}
			rep.fail(int64(bad), "session %s: replies differ from the in-process replay or failed", p.id)
			w, rows := p.epochARI()
			wsum += w
			n += rows
		}
	}
	if n == 0 {
		return 0, nil
	}
	return wsum / n, nil
}

// epochARI scores the session's replies against the generator's labels per
// model epoch ≥ 1, and returns the row-weighted ARI sum and the rows scored.
// A group of one row is skipped: ARI is undefined there (metrics returns
// NaN), and a relearn on the last row of the phase opens one.
func (p *sessionPlan) epochARI() (wsum, rows float64) {
	groups := map[int][]int{}
	for i, a := range p.replies {
		if a.Epoch >= 1 {
			groups[a.Epoch] = append(groups[a.Epoch], i)
		}
	}
	for _, idx := range groups {
		if len(idx) < 2 {
			continue
		}
		truth, pred := make([]int, len(idx)), make([]int, len(idx))
		for j, i := range idx {
			truth[j], pred[j] = p.truth[i], p.replies[i].Cluster
		}
		if ari, err := metrics.AdjustedRandIndex(truth, pred); err == nil {
			wsum += ari * float64(len(idx))
			rows += float64(len(idx))
		}
	}
	return wsum, rows
}

// alternateSessions accepts a ring that puts the clients' first sessions on
// alternate backends, so each backend owns half of them and ships to the
// other. The keys mirror the gateway's session ring key.
func alternateSessions(scs []*sessionClient) placement {
	return func(ring *hashring.Ring, addrs []string) bool {
		for c, sc := range scs {
			if ring.Get("s|"+sc.plans[0].id) != addrs[c%2] {
				return false
			}
		}
		return true
	}
}

// sessionSetup trains the model, starts a fleet and creates each client's
// first session.
func sessionSetup(o options, trainDS *mcdc.Dataset, rec *recorder) (*fleet, []*sessionClient, *model.Snapshot, error) {
	snap, err := trainModel(trainDS)
	if err != nil {
		return nil, nil, nil, err
	}
	scs := make([]*sessionClient, o.clients)
	for c := range scs {
		scs[c] = &sessionClient{plans: []*sessionPlan{planSession(o, c, 0)}}
	}
	f, err := fleetSetup(o, snap, false, rec, "sessions", alternateSessions(scs), func(f *fleet) error {
		var wg sync.WaitGroup
		errs := make([]error, o.clients)
		for c := range scs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = scs[c].plans[0].create(context.Background(), f.clients[c], o.sizes.window)
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("create session: %w", err)
			}
		}
		return nil
	})
	return f, scs, snap, err
}

func runSessions(o options) (*report, error) {
	rep := newReport()
	trainDS := mcdc.SyntheticDataset("session-model", o.sizes.modelN, features, classes, mix(o.seed, 3))
	type env struct {
		f    *fleet
		scs  []*sessionClient
		snap *model.Snapshot
	}
	e, setup, err := setupRepeated(o.sizes.setupReps, func() (env, error) {
		f, scs, snap, err := sessionSetup(o, trainDS, nil)
		return env{f, scs, snap}, err
	}, func(e env) { e.f.close() })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	if !e.f.placed {
		rep.notef("no backend ports gave the intended ring placement; placement is random in this run")
	}
	base := sessionLoop(o, e.f, e.scs, nil)
	err = checkCounters(rep, e.f)
	e.f.close()
	if err != nil {
		return nil, err
	}
	ari, err := checkSessions(o, rep, e.scs, e.snap.Cardinalities, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["ari"] = ari
	fillPhase(rep, "session assigns", base.lat, base.rows, base.elapsed, base.use, o.clients)
	if !o.trace {
		return rep, nil
	}

	rec := newRecorder()
	f, scs, snap, err := sessionSetup(o, trainDS, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	traced := sessionLoop(o, f, scs, rec)
	if err := checkCounters(rep, f); err != nil {
		return nil, err
	}
	t := &replayTiming{dir: o.runDir}
	if _, err := checkSessions(o, rep, scs, snap.Cardinalities, t); err != nil {
		return nil, err
	}
	rep.layer["stream.add_us"] = median(t.addUs)
	rep.layer["stream.relearns"] = float64(len(t.relearnMs))
	rep.layer["stream.relearn_ms"] = median(t.relearnMs)
	rep.layer["model.ckpt_encode_us"] = mean(t.snapUs) + mean(t.saveUs)
	rep.layer["model.ckpt_savefile_us"] = mean(t.fileUs)
	rep.layer["model.ckpt_bytes"] = mean(t.ckptSize)
	return rep, fillTraced(o, rep, rec, f, base, traced)
}
