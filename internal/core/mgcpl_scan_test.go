package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mcdc/internal/categorical"
)

// scanData builds an n-row data set with three planted clusters, uneven
// cardinalities (so the plane stride exceeds most features' domains) and
// about 8% Missing values.
func scanData(n int, seed int64) ([][]int, []int) {
	card := []int{2, 5, 3, 7, 4, 6}
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, n)
	for i := range rows {
		c := rng.Intn(3)
		rows[i] = make([]int, len(card))
		for r, m := range card {
			switch {
			case rng.Float64() < 0.08:
				rows[i][r] = categorical.Missing
			case rng.Float64() < 0.8:
				rows[i][r] = (c + r) % m
			default:
				rows[i][r] = rng.Intn(m)
			}
		}
	}
	return rows, card
}

// encodingHash folds a pooled encoding and the first run's κ into one FNV-1a
// digest.
func encodingHash(enc [][]int, first *MGCPLResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, row := range enc {
		put(len(row))
		for _, x := range row {
			put(x)
		}
	}
	for _, k := range first.Kappa() {
		put(k)
	}
	return h.Sum64()
}

type goldenCase struct {
	name string
	rows [][]int
	card []int
	k0   int
	seed int64
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, s := range []int64{1, 2, 3} {
		rows, card := scanData(300, s)
		for _, k0 := range []int{2, 0, 300} {
			cs = append(cs, goldenCase{fmt.Sprintf("scan300/s%d/k0=%d", s, k0), rows, card, k0, s + 10})
		}
	}
	for _, s := range []int64{1, 2} {
		rows, card, _ := separated(1000, 10, 3, s)
		cs = append(cs, goldenCase{fmt.Sprintf("sep1000/s%d", s), rows, card, 0, s})
	}
	return cs
}

// oracleScan is the direct form of the winner/rival scan: every cluster slot
// with members, its similarity formed by WeightedSimLOO and its weight by
// sigmoidWeight(δ_l). simH is the rival's similarity after i has moved to
// the winner, evaluated on the moved tables (restored before returning).
func oracleScan(st *mgcplState, i int, gTotal float64) (v, h int, simV, simH float64) {
	v, h = -1, -1
	best, second := math.Inf(-1), math.Inf(-1)
	for l := 0; l < st.tables.K(); l++ {
		if st.tables.Size(l) == 0 {
			continue
		}
		rho := 0.0
		if gTotal > 0 {
			rho = float64(st.g[l]+st.gCur[l]) / gTotal
		}
		sim := st.tables.WeightedSimLOO(i, l, st.omega[l], st.assign[i] == l)
		score := (1 - rho) * sigmoidWeight(st.delta[l]) * sim
		switch {
		case score > best:
			second, h = best, v
			best, v = score, l
		case score > second:
			second, h = score, l
		}
	}
	if v < 0 {
		return v, h, 0, 0
	}
	simV = st.tables.WeightedSimLOO(i, v, st.omega[v], st.assign[i] == v)
	if h < 0 {
		return v, h, simV, 0
	}
	from := st.assign[i]
	if from != v {
		if from >= 0 {
			st.tables.Remove(i, from)
		}
		st.tables.Add(i, v)
	}
	simH = st.tables.WeightedSimLOO(i, h, st.omega[h], false)
	if from != v {
		st.tables.Remove(i, v)
		if from >= 0 {
			st.tables.Add(i, from)
		}
	}
	return v, h, simV, simH
}

// oracleCheck returns a check hook that compares every presentation's scan
// against oracleScan bit for bit, and the state's caches (live list, u_l,
// probe planes) against their direct definitions. It counts the
// presentations it checked.
func oracleCheck(t *testing.T, presented *int) func(st *mgcplState, i, v, h int, simV, simH float64) {
	return func(st *mgcplState, i, v, h int, simV, simH float64) {
		t.Helper()
		*presented++
		var gTotal float64
		for l := range st.g {
			gTotal += float64(st.g[l] + st.gCur[l])
		}
		ov, oh, osimV, osimH := oracleScan(st, i, gTotal)
		if v != ov || h != oh || math.Float64bits(simV) != math.Float64bits(osimV) || math.Float64bits(simH) != math.Float64bits(osimH) {
			t.Fatalf("object %d: scan (v=%d h=%d simV=%v simH=%v), oracle (v=%d h=%d simV=%v simH=%v)",
				i, v, h, simV, simH, ov, oh, osimV, osimH)
		}
		var live []int
		for l := 0; l < st.tables.K(); l++ {
			if st.tables.Size(l) > 0 {
				live = append(live, l)
			}
		}
		if !reflect.DeepEqual(live, st.live) {
			t.Fatalf("live list %v, clusters with members %v", st.live, live)
		}
		for _, l := range st.live {
			if math.Float64bits(st.u[l]) != math.Float64bits(sigmoidWeight(st.delta[l])) {
				t.Fatalf("cluster %d: cached u %v, sigmoidWeight(δ=%v) %v", l, st.u[l], st.delta[l], sigmoidWeight(st.delta[l]))
			}
			if l == st.assign[i] {
				continue
			}
			plane := st.planes[l*st.size : (l+1)*st.size]
			var sum float64
			for r, x := range st.rows[i] {
				if x != categorical.Missing {
					sum += plane[r*st.tables.Stride()+x]
				}
			}
			got, want := sum/float64(st.tables.D()), st.tables.WeightedSimLOO(i, l, st.omega[l], false)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cluster %d plane: object %d gathers %v, WeightedSimLOO %v", l, i, got, want)
			}
		}
	}
}

// TestScanMatchesOracle runs whole multi-level MGCPL analyses with the oracle
// check on every presentation — Missing values, a plane stride above most
// features' cardinality, and k₀ ∈ {2, ⌈√n⌉, n} — at workers 1, 2 and
// GOMAXPROCS, and checks the checked runs match RunMGCPL's.
func TestScanMatchesOracle(t *testing.T) {
	const n = 150
	rows, card := scanData(n, 4)
	for _, k0 := range []int{2, int(math.Ceil(math.Sqrt(n))), n} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("k0=%d/workers=%d", k0, workers), func(t *testing.T) {
				cfg := func() MGCPLConfig {
					return MGCPLConfig{InitialK: k0, Workers: workers, Rand: rand.New(rand.NewSource(int64(k0)))}
				}
				presented := 0
				got, err := runMGCPL(rows, card, cfg(), oracleCheck(t, &presented))
				if err != nil {
					t.Fatal(err)
				}
				if presented < n {
					t.Fatalf("oracle checked %d presentations, want at least %d", presented, n)
				}
				want, err := RunMGCPL(rows, card, cfg())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("checked run κ=%v differs from RunMGCPL κ=%v", got.Kappa(), want.Kappa())
				}
			})
		}
	}
}

// TestPermIntoMatchesPerm pins permInto to rng.Perm: the same permutation
// from the same seed, with the rng left in the same state.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000} {
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		dst := make([]int, n)
		for i := range dst {
			dst[i] = -7 // permInto must not depend on dst's prior contents
		}
		permInto(a, dst)
		if want := b.Perm(n); !reflect.DeepEqual(dst, want) {
			t.Fatalf("n=%d: permInto %v, rng.Perm %v", n, dst, want)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("n=%d: rng state diverged after the permutation", n)
		}
	}
}

// TestPooledEncodingGoldens pins seeded single-worker pooled encodings
// (three MGCPL repeats, κ of the first) to digests recorded before the scan
// read its similarities from probe planes: the cached scan must reproduce
// the direct one's every decision.
func TestPooledEncodingGoldens(t *testing.T) {
	want := map[string]uint64{
		"scan300/s1/k0=2":   0xfe257673cbbb08a6, // κ [2]
		"scan300/s1/k0=0":   0x90026299766afe0e, // κ [9 5 3]
		"scan300/s1/k0=300": 0xc39ca1417903cc78, // κ [91 44 21 11 6 3]
		"scan300/s2/k0=2":   0x5edecb4a6d50bec7, // κ [2]
		"scan300/s2/k0=0":   0xeea0b58803838fcd, // κ [8 4 3]
		"scan300/s2/k0=300": 0xc097e7be62233b1a, // κ [146 68 31 16 8 3]
		"scan300/s3/k0=2":   0x80377eb57db7e0a6, // κ [2]
		"scan300/s3/k0=0":   0x279083c5bf8bef43, // κ [9 5 3]
		"scan300/s3/k0=300": 0x3cd6e21618c63f89, // κ [92 42 21 11 6 4 3]
		"sep1000/s1":        0xe4df37e11e47e1cb, // κ [11 3]
		"sep1000/s2":        0x4d2c817269dfbc75, // κ [16 3]
	}
	cases := goldenCases()
	if len(cases) != len(want) {
		t.Fatalf("%d golden cases, %d digests", len(cases), len(want))
	}
	for _, c := range cases {
		enc, first, err := PooledEncoding(c.rows, c.card, MGCPLConfig{InitialK: c.k0, Workers: 1, Rand: rand.New(rand.NewSource(c.seed))}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodingHash(enc, first); got != want[c.name] {
			t.Errorf("%s: digest %#x (κ %v), want %#x", c.name, got, first.Kappa(), want[c.name])
		}
	}
}
