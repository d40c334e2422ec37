package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/parallel"
	"mcdc/internal/similarity"
)

// Defaults for the MGCPL hyper-parameters, matching §IV-A of the paper
// (η = 0.03, k₀ = √n).
const (
	DefaultLearningRate = 0.03
	defaultMaxInner     = 100
	defaultMaxEpochs    = 60

	// defaultRivalThreshold is the redundancy gate of the rival penalty: a
	// runner-up whose (weighted, leave-one-out) similarity reaches this
	// fraction of the winner's is considered to overlap the winner's basin
	// and is penalized toward elimination.
	defaultRivalThreshold = 0.85
)

// ErrNoRand is returned when a learner is run without a random source.
var ErrNoRand = errors.New("core: nil random source (provide *rand.Rand)")

// MGCPLConfig parameterizes Algorithm 1.
type MGCPLConfig struct {
	// LearningRate is η of Eq. (12)–(13). Defaults to DefaultLearningRate.
	LearningRate float64
	// InitialK is k₀. Defaults to ⌈√n⌉ (the paper's setting).
	InitialK int
	// MaxInnerIters caps the passes of the inner competitive-penalization
	// loop per granularity level (safety bound; the loop normally converges
	// when the partition stabilizes).
	MaxInnerIters int
	// MaxEpochs caps the number of granularity levels explored.
	MaxEpochs int
	// RivalThreshold gates the rival penalty: only runner-up clusters whose
	// similarity reaches this fraction of the winner's are treated as
	// redundant and penalized toward elimination. Lower values coarsen the
	// final granularity; higher values preserve finer clusters. Defaults to
	// 0.85. (This resolves the elimination-strength ambiguity of the
	// paper's Eq. (13); see DESIGN.md §2.)
	RivalThreshold float64
	// Workers bounds the parallelism of the order-independent parts of the
	// learning (per-cluster feature-weight refreshes, and the fan-out of
	// ensemble repeats in PooledEncoding). ≤ 0 resolves to GOMAXPROCS, 1 is
	// fully sequential; results are bit-for-bit identical at any setting.
	// The competitive-penalization object loop itself is inherently
	// sequential — each presentation updates the state the next one reads —
	// as is the epoch loop (each epoch inherits the previous epoch's k), so
	// those stay single-threaded by design.
	Workers int
	// Rand drives seed selection. Required.
	Rand *rand.Rand
}

func (c *MGCPLConfig) withDefaults(n int) MGCPLConfig {
	out := *c
	if out.LearningRate <= 0 {
		out.LearningRate = DefaultLearningRate
	}
	if out.InitialK <= 0 {
		out.InitialK = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if out.InitialK > n {
		out.InitialK = n
	}
	if out.InitialK < 2 {
		out.InitialK = 2
	}
	if out.MaxInnerIters <= 0 {
		out.MaxInnerIters = defaultMaxInner
	}
	if out.MaxEpochs <= 0 {
		out.MaxEpochs = defaultMaxEpochs
	}
	if out.RivalThreshold <= 0 || out.RivalThreshold > 1 {
		out.RivalThreshold = defaultRivalThreshold
	}
	return out
}

// Granularity is one converged level of the multi-granular analysis: a
// partition of the n objects into K clusters with dense labels 0..K-1.
type Granularity struct {
	K      int
	Labels []int
}

// MGCPLResult carries the output of Algorithm 1: the series of partitions
// Γ = {Y₁,…,Y_σ} at decreasing numbers of clusters κ = {k₁,…,k_σ}.
type MGCPLResult struct {
	Levels []Granularity
}

// Kappa returns κ, the learned numbers of clusters per granularity level.
func (r *MGCPLResult) Kappa() []int {
	out := make([]int, len(r.Levels))
	for i := range r.Levels {
		out[i] = r.Levels[i].K
	}
	return out
}

// Sigma returns σ, the number of granularity levels learned.
func (r *MGCPLResult) Sigma() int { return len(r.Levels) }

// Final returns the coarsest partition Y_σ. It panics only if the result is
// empty, which RunMGCPL never produces.
func (r *MGCPLResult) Final() Granularity { return r.Levels[len(r.Levels)-1] }

// Encoding returns the Γ embedding consumed by CAME: an n×σ matrix whose
// column j is the label vector of granularity level j.
func (r *MGCPLResult) Encoding() [][]int {
	if len(r.Levels) == 0 {
		return nil
	}
	n := len(r.Levels[0].Labels)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		row := make([]int, len(r.Levels))
		for j := range r.Levels {
			row[j] = r.Levels[j].Labels[i]
		}
		out[i] = row
	}
	return out
}

// mgcplState is the mutable learning state for one granularity level.
//
// The winner/rival scan runs once per presentation over every live cluster,
// so its inputs are cached rather than re-formed per (object, cluster) pair:
// u_l next to δ_l, and each cluster's non-member similarity operands in a
// probe plane (see similarity.Tables.FillProbePlane). A cache is rebuilt
// whenever its inputs change — u_l on every δ_l write (setDelta), a plane
// when its cluster gains or loses a member (move) or its ω is refreshed
// (refreshWeights) — so every score is bit-for-bit the value the direct
// formulas give.
type mgcplState struct {
	rows   [][]int
	tables *similarity.Tables
	assign []int       // assign[i]: current cluster of object i, -1 if none
	g      []int       // winning counts of the previous pass (Eq. 7)
	gCur   []int       // winning counts being accumulated this pass
	delta  []float64   // δ_l driving the sigmoid weight u_l (Eq. 11)
	u      []float64   // u_l = sigmoidWeight(δ_l); written only by setDelta
	omega  [][]float64 // ω_rl feature weights per cluster (Eq. 18)
	// live lists the clusters still in play — never eliminated and not
	// empty — in ascending order, which is the scan's tie-break order. A
	// cluster leaves it when its last member defects: it can no longer win,
	// so it never regains a member.
	live   []int
	planes []float64 // cluster l's probe plane: planes[l*size : (l+1)*size]
	size   int       // d·stride, the length of one plane
	idx    []int     // the presented row's non-missing flat plane indices
	eta    float64
	order  []int // presentation order, reshuffled every pass
	rng    *rand.Rand
	// rivalThreshold gates the rival penalty: only rivals whose similarity
	// ratio to the winner exceeds it are treated as redundant and penalized.
	rivalThreshold float64
	// workers bounds the parallelism of the per-cluster weight refresh.
	workers int
	// check, when set (by tests), sees every presentation's scan result
	// before the state acts on it.
	check func(st *mgcplState, i, v, h int, simV, simH float64)
}

// mgcplBuffers is the scratch one RunMGCPL call reuses across its epochs:
// the n-sized partition, presentation order and seed permutation, and the
// probe planes, sized by the first (largest) epoch's k₀. The zero value is
// ready to use.
type mgcplBuffers struct {
	assign, order, perm []int
	planes              []float64
}

// grow returns s resized to n, reallocating only when its capacity is short.
// The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// weight returns u_l = 1/(1+e^(−10δ+5)), Eq. (11).
func sigmoidWeight(delta float64) float64 {
	return 1 / (1 + math.Exp(-10*delta+5))
}

// RunMGCPL executes Algorithm 1 on integer-coded rows with the given
// per-feature cardinalities, returning the multi-granular partitions.
//
// Each granularity epoch re-launches competitive penalization learning from
// k_initial freshly drawn random seeds (Algorithm 1 line 3 sits inside the
// outer loop — only the *number* of clusters is inherited between epochs).
// Within an epoch, objects are repeatedly presented; the winner (Eq. 6)
// absorbs the object and is awarded (Eq. 12) while its nearest rival is
// penalized (Eq. 13), and per-cluster feature weights are refreshed
// (Eq. 15–18) after each pass. Clusters whose members all defect are
// eliminated, so the epoch converges at some k_new ≤ k_initial. The next
// epoch starts with k_initial = k_new and fresh parameters; the procedure
// stops when an epoch eliminates no further cluster (k_new = k_old).
func RunMGCPL(rows [][]int, cardinalities []int, cfg MGCPLConfig) (*MGCPLResult, error) {
	return runMGCPL(rows, cardinalities, cfg, nil)
}

// runMGCPL is RunMGCPL with a check hook installed on every epoch's state
// (see mgcplState.check); nil runs without one.
func runMGCPL(rows [][]int, cardinalities []int, cfg MGCPLConfig, check func(st *mgcplState, i, v, h int, simV, simH float64)) (*MGCPLResult, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("core: empty data")
	}
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	c := cfg.withDefaults(n)

	result := &MGCPLResult{}
	var buf mgcplBuffers
	kInitial := c.InitialK
	for epoch := 0; epoch < c.MaxEpochs; epoch++ {
		st, err := newMGCPLState(rows, cardinalities, kInitial, c, &buf)
		if err != nil {
			return nil, err
		}
		st.check = check
		st.learnLevel(c.MaxInnerIters)
		level := st.compact()
		if level.K == kInitial && epoch > 0 {
			// No cluster could be eliminated this epoch: convergence.
			break
		}
		result.Levels = append(result.Levels, level)
		kInitial = level.K
		if level.K <= 1 {
			break
		}
	}
	if len(result.Levels) == 0 {
		// Degenerate safety net: one cluster containing everything.
		result.Levels = append(result.Levels, Granularity{K: 1, Labels: make([]int, n)})
	}
	return result, nil
}

// newMGCPLState seeds k clusters for one epoch. c must have its defaults
// resolved; the state's n- and k-sized slices are carved from buf.
func newMGCPLState(rows [][]int, card []int, k int, c MGCPLConfig, buf *mgcplBuffers) (*mgcplState, error) {
	tables, err := similarity.NewTables(rows, card, k)
	if err != nil {
		return nil, fmt.Errorf("mgcpl: %w", err)
	}
	n, d := len(rows), len(card)
	size := d * tables.Stride()
	buf.assign = grow(buf.assign, n)
	buf.order = grow(buf.order, n)
	buf.perm = grow(buf.perm, n)
	buf.planes = grow(buf.planes, k*size)
	st := &mgcplState{
		rows:           rows,
		tables:         tables,
		assign:         buf.assign,
		g:              make([]int, k),
		gCur:           make([]int, k),
		delta:          make([]float64, k),
		u:              make([]float64, k),
		omega:          make([][]float64, k),
		live:           make([]int, k),
		planes:         buf.planes,
		size:           size,
		idx:            make([]int, 0, d),
		eta:            c.LearningRate,
		rivalThreshold: c.RivalThreshold,
		order:          buf.order,
		rng:            c.Rand,
		workers:        c.Workers,
	}
	for i := range st.order {
		st.order[i] = i
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	// Seed each cluster with a distinct random object ("randomly select
	// k_initial objects to represent clusters", Algorithm 1 line 3).
	permInto(c.Rand, buf.perm)
	for l, i := range buf.perm[:k] {
		st.assign[i] = l
		st.tables.Add(i, l)
	}
	for l := 0; l < k; l++ {
		st.setDelta(l, 1)
		st.live[l] = l
		st.omega[l] = make([]float64, d)
		for r := range st.omega[l] {
			st.omega[l][r] = 1 / float64(d)
		}
		st.fillPlane(l)
	}
	return st, nil
}

// permInto writes a random permutation of 0..len(dst)-1 into dst, drawing
// from rng exactly as rng.Perm(len(dst)) does, so the result and the rng's
// subsequent state match a Perm call without its allocation.
func permInto(rng *rand.Rand, dst []int) {
	for i := range dst {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
}

// setDelta writes δ_l and its cached sigmoid weight u_l together.
func (st *mgcplState) setDelta(l int, delta float64) {
	st.delta[l] = delta
	st.u[l] = sigmoidWeight(delta)
}

// fillPlane rebuilds cluster l's probe plane from its current counts and ω.
func (st *mgcplState) fillPlane(l int) {
	st.tables.FillProbePlane(l, st.omega[l], st.planes[l*st.size:(l+1)*st.size])
}

// move reassigns object i from cluster from (-1: unassigned) to cluster to,
// keeping both clusters' planes and the live list current.
func (st *mgcplState) move(i, from, to int) {
	if from >= 0 {
		st.tables.Remove(i, from)
		if st.tables.Size(from) > 0 {
			st.fillPlane(from)
		} else {
			for j, l := range st.live {
				if l == from {
					st.live = append(st.live[:j], st.live[j+1:]...)
					break
				}
			}
		}
	}
	st.tables.Add(i, to)
	st.assign[i] = to
	st.fillPlane(to)
}

// learnLevel runs the inner competitive-penalization loop until the
// partition stops changing (or maxIters passes). The epoch also ends once
// half of its starting clusters have been eliminated: one epoch represents
// one granularity stage, and letting a single epoch cascade further would
// skip the intermediate granularities the next (re-seeded) epochs explore.
func (st *mgcplState) learnLevel(maxIters int) {
	n := len(st.rows)
	minAlive := (len(st.live) + 1) / 2
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		liveBefore := len(st.live)
		var gTotal float64
		for _, gl := range st.g {
			gTotal += float64(gl)
		}
		for l := range st.gCur {
			st.gCur[l] = 0
		}
		// Objects are presented in a fresh random order every pass: with a
		// fixed order, long runs of similar objects deliver consecutive
		// rival penalties that can eliminate a healthy balanced cluster.
		// Rival penalization is disabled during the very first pass (iter
		// 0): clusters are still single seeds there, and penalizing them
		// ~n/k times each before they can accrete members collapses the
		// whole configuration into one cluster on large data sets.
		st.rng.Shuffle(n, func(a, b int) { st.order[a], st.order[b] = st.order[b], st.order[a] })
		gCurTotal := 0.0
		for _, i := range st.order {
			// simH is the rival's similarity after the move below: its
			// counts are untouched by the move, or i just left it and its
			// new non-member counts are the leave-one-out counts the scan
			// used.
			v, h, simV, simH := st.pickWinnerAndRival(i, gTotal+gCurTotal)
			if st.check != nil {
				st.check(st, i, v, h, simV, simH)
			}
			if v < 0 {
				continue // no live cluster can score this object
			}
			if from := st.assign[i]; from != v {
				st.move(i, from, v)
				changed = true
			}
			// Award the winner, penalize the rival (Eq. 10, 12, 13). The
			// award is capped at the initialization value δ=1: u_l lives in
			// [0,1] (Eq. 11), so winning restores a cluster to full weight
			// rather than banking unbounded credit — otherwise win credit
			// would always swamp the rival penalties and no cluster could
			// ever be eliminated.
			st.gCur[v]++
			gCurTotal++
			award := st.delta[v] + st.eta
			if award > 1 {
				award = 1
			}
			st.setDelta(v, award)
			if h >= 0 && iter > 0 {
				// The penalty strength is the rival's similarity *relative
				// to the winner's*: it approaches the full award η exactly
				// when the rival is redundant with the winner (s_h ≈ s_v),
				// the configuration multi-granular learning must dissolve.
				// Rivals below the redundancy threshold represent genuinely
				// distinct clusters and are left alone, which makes the
				// cluster elimination self-limiting: once the surviving
				// clusters are mutually distinct at the current granularity,
				// the epoch converges instead of collapsing to k = 1.
				ratio := 1.0
				if simV > 0 {
					ratio = simH / simV
					if ratio > 1 {
						ratio = 1
					}
				}
				if ratio >= st.rivalThreshold {
					penalty := st.delta[h] - st.eta*ratio
					if penalty < -1 {
						penalty = -1
					}
					st.setDelta(h, penalty)
				}
			}
		}
		copy(st.g, st.gCur)
		st.refreshWeights()
		// Clusters emptied this pass are out of the competition (move has
		// already dropped them from the live list). Each elimination clears
		// the guidance statistics of the survivors (g←0, δ←1): the fight
		// that killed the loser also battered bystanders, and without the
		// reset a single redundancy can cascade a healthy configuration all
		// the way down to one cluster.
		if len(st.live) < liveBefore {
			if len(st.live) <= minAlive {
				return
			}
			st.resetGuidance()
			continue
		}
		if !changed {
			return
		}
	}
}

// refreshWeights recomputes the feature weights (Eq. 15–18) of every live
// cluster and rebuilds its probe plane under them. Each cluster's weights
// depend only on the (frozen) frequency tables and are written to that
// cluster's own ω slice and plane, so the clusters fan out across the
// configured workers with bit-for-bit identical results at any parallelism.
func (st *mgcplState) refreshWeights() {
	workers := parallel.Gate(st.workers, len(st.live)*st.tables.D())
	parallel.Must(parallel.ForEach(workers, len(st.live), func(j int) error {
		l := st.live[j]
		st.tables.FeatureWeights(l, st.omega[l])
		st.fillPlane(l)
		return nil
	}))
}

// resetGuidance clears the learning statistics of the surviving clusters
// (Algorithm 1 line 13) while keeping the current partition. Unlike a full
// re-launch, the feature weights are not reset to uniform: they stay as
// refreshWeights just computed them from the inherited partition, since
// the surviving clusters are already formed and evaluating the next
// rivalries under uniform weights would discard the very feature
// relevances that distinguish them.
func (st *mgcplState) resetGuidance() {
	for l := range st.delta {
		st.g[l] = 0
		st.gCur[l] = 0
		st.setDelta(l, 1)
	}
}

// pickWinnerAndRival evaluates Eq. (6) and Eq. (9): the winner v maximizes
// (1−ρ_l)·u_l·s(x_i,C_l) over live clusters, and the rival h is the
// runner-up; simV and simH are their similarities. s is the weighted
// similarity of Eq. (14), leave-one-out for i's own cluster and a probe
// plane gather for every other. The winning ratio ρ counts the previous
// pass's wins plus the wins already accumulated in the current pass: purely
// retrospective counts leave the very first pass undamped, and one early
// winner can then absorb the entire data set before any other cluster forms.
func (st *mgcplState) pickWinnerAndRival(i int, gTotal float64) (v, h int, simV, simH float64) {
	stride := st.tables.Stride()
	st.idx = st.idx[:0]
	for r, x := range st.rows[i] {
		if x != categorical.Missing {
			st.idx = append(st.idx, r*stride+x)
		}
	}
	den := float64(len(st.rows[i]))
	cur := st.assign[i]
	v, h = -1, -1
	best, second := math.Inf(-1), math.Inf(-1)
	for _, l := range st.live {
		rho := 0.0
		if gTotal > 0 {
			rho = float64(st.g[l]+st.gCur[l]) / gTotal
		}
		var sim float64
		if l == cur {
			sim = st.tables.WeightedSimLOO(i, l, st.omega[l], true)
		} else {
			plane := st.planes[l*st.size : (l+1)*st.size]
			for _, t := range st.idx {
				sim += plane[t]
			}
			sim /= den
		}
		score := (1 - rho) * st.u[l] * sim
		switch {
		case score > best:
			second, h, simH = best, v, simV
			best, v, simV = score, l, sim
		case score > second:
			second, h, simH = score, l, sim
		}
	}
	return v, h, simV, simH
}

// compact relabels the live, non-empty clusters densely and returns the
// current partition.
func (st *mgcplState) compact() Granularity {
	remap := make(map[int]int)
	labels := make([]int, len(st.assign))
	for i, l := range st.assign {
		if l < 0 {
			// Unassigned objects (possible only in pathological cases where
			// every similarity was zero) join cluster 0.
			labels[i] = 0
			continue
		}
		nl, ok := remap[l]
		if !ok {
			nl = len(remap)
			remap[l] = nl
		}
		labels[i] = nl
	}
	k := len(remap)
	if k == 0 {
		k = 1
	}
	return Granularity{K: k, Labels: labels}
}
