package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPerfectPartitionScoresOne(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2, 2}
	// Same partition under a different labeling.
	pred := []int{2, 2, 0, 0, 1, 1, 1}
	for name, fn := range map[string]func([]int, []int) (float64, error){
		"ACC": Accuracy,
		"ARI": AdjustedRandIndex,
		"AMI": AdjustedMutualInformation,
		"NMI": NormalizedMutualInformation,
		"FM":  FowlkesMallows,
	} {
		got, err := fn(truth, pred)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !almostEqual(got, 1, 1e-9) {
			t.Errorf("%s(perfect) = %v, want 1", name, got)
		}
	}
}

func TestKnownContingencyValues(t *testing.T) {
	// 6 objects: truth {0,0,0,1,1,1}, pred groups one object wrongly.
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 1}
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(acc, 5.0/6, 1e-9) {
		t.Errorf("ACC = %v, want 5/6", acc)
	}
	// ARI by hand: contingency [[2,1],[0,3]]; a=[3,3], b=[2,4].
	// sumCells = C(2,2)+C(1,2)+C(3,2) = 1+0+3 = 4; sumA = 3+3 = 6;
	// sumB = 1+6 = 7; total = C(6,2)=15; E = 42/15 = 2.8;
	// max = 6.5; ARI = (4-2.8)/(6.5-2.8) = 1.2/3.7.
	ari, err := AdjustedRandIndex(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ari, 1.2/3.7, 1e-9) {
		t.Errorf("ARI = %v, want %v", ari, 1.2/3.7)
	}
	// FM = tp/sqrt(sumA*sumB) = 4/sqrt(42).
	fm, err := FowlkesMallows(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fm, 4/math.Sqrt(42), 1e-9) {
		t.Errorf("FM = %v, want %v", fm, 4/math.Sqrt(42))
	}
}

func TestIndependentPartitionsScoreNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2000
	truth := make([]int, n)
	pred := make([]int, n)
	for i := range truth {
		truth[i] = rng.Intn(4)
		pred[i] = rng.Intn(4)
	}
	ari, err := AdjustedRandIndex(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari) > 0.05 {
		t.Errorf("ARI(independent) = %v, want ≈ 0", ari)
	}
	ami, err := AdjustedMutualInformation(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ami) > 0.05 {
		t.Errorf("AMI(independent) = %v, want ≈ 0", ami)
	}
}

// TestARITrivialPartitions pins ARI on partitions that leave the chance
// correction nothing to correct: 1 whenever both sides are trivial,
// including a single row, which forms no pair at all.
func TestARITrivialPartitions(t *testing.T) {
	for _, c := range []struct {
		name        string
		truth, pred []int
		want        float64
	}{
		{"one row", []int{0}, []int{0}, 1},
		{"one row, other labels", []int{3}, []int{5}, 1},
		{"two singletons each", []int{0, 1}, []int{1, 0}, 1},
		{"one cluster each", []int{2, 2, 2}, []int{0, 0, 0}, 1},
		{"one cluster vs singletons", []int{0, 0}, []int{0, 1}, 0},
	} {
		got, err := AdjustedRandIndex(c.truth, c.pred)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: ARI = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMetricErrors(t *testing.T) {
	if _, err := Accuracy([]int{0, 1}, []int{0}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("empty labelings: want error")
	}
	if _, err := AdjustedRandIndex([]int{-1, 0}, []int{0, 0}); err == nil {
		t.Error("negative labels: want error")
	}
}

// randomLabeling is the generator shared by the quick properties below.
type labelingPair struct {
	truth, pred []int
}

func genPair(rng *rand.Rand) labelingPair {
	n := 2 + rng.Intn(60)
	kt, kp := 1+rng.Intn(5), 1+rng.Intn(5)
	p := labelingPair{truth: make([]int, n), pred: make([]int, n)}
	for i := 0; i < n; i++ {
		p.truth[i] = rng.Intn(kt)
		p.pred[i] = rng.Intn(kp)
	}
	return p
}

func TestQuickProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(values []reflect.Value, rng *rand.Rand) {
			values[0] = reflect.ValueOf(genPair(rng))
		},
	}
	t.Run("ranges", func(t *testing.T) {
		prop := func(p labelingPair) bool {
			acc, err := Accuracy(p.truth, p.pred)
			if err != nil || acc < 0 || acc > 1 {
				return false
			}
			ari, err := AdjustedRandIndex(p.truth, p.pred)
			if err != nil || ari < -1-1e-9 || ari > 1+1e-9 {
				return false
			}
			nmi, err := NormalizedMutualInformation(p.truth, p.pred)
			if err != nil || nmi < -1e-9 || nmi > 1+1e-9 {
				return false
			}
			fm, err := FowlkesMallows(p.truth, p.pred)
			return err == nil && fm >= 0 && fm <= 1+1e-9
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("pair-symmetry", func(t *testing.T) {
		// ARI, NMI, AMI and FM are symmetric in their arguments.
		prop := func(p labelingPair) bool {
			for _, fn := range []func([]int, []int) (float64, error){
				AdjustedRandIndex, NormalizedMutualInformation,
				AdjustedMutualInformation, FowlkesMallows,
			} {
				ab, err1 := fn(p.truth, p.pred)
				ba, err2 := fn(p.pred, p.truth)
				if err1 != nil || err2 != nil || !almostEqual(ab, ba, 1e-9) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("relabel-invariance", func(t *testing.T) {
		// Permuting the prediction's label names must not change any index.
		prop := func(p labelingPair) bool {
			maxL := 0
			for _, l := range p.pred {
				if l > maxL {
					maxL = l
				}
			}
			perm := rand.New(rand.NewSource(int64(len(p.pred)))).Perm(maxL + 1)
			relabeled := make([]int, len(p.pred))
			for i, l := range p.pred {
				relabeled[i] = perm[l]
			}
			for _, fn := range []func([]int, []int) (float64, error){
				Accuracy, AdjustedRandIndex, AdjustedMutualInformation, FowlkesMallows,
			} {
				a, err1 := fn(p.truth, p.pred)
				b, err2 := fn(p.truth, relabeled)
				if err1 != nil || err2 != nil || !almostEqual(a, b, 1e-9) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("acc-at-least-majority", func(t *testing.T) {
		// ACC under optimal matching is at least the largest class share
		// when predictions form a single cluster.
		prop := func(p labelingPair) bool {
			single := make([]int, len(p.truth))
			acc, err := Accuracy(p.truth, single)
			if err != nil {
				return false
			}
			counts := map[int]int{}
			best := 0
			for _, l := range p.truth {
				counts[l]++
				if counts[l] > best {
					best = counts[l]
				}
			}
			return almostEqual(acc, float64(best)/float64(len(p.truth)), 1e-9)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestEvaluateBundlesAllIndices(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{1, 1, 0, 0}
	sc, err := Evaluate(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ACC != 1 || !almostEqual(sc.ARI, 1, 1e-9) || !almostEqual(sc.AMI, 1, 1e-9) || !almostEqual(sc.FM, 1, 1e-9) {
		t.Errorf("Evaluate(perfect) = %+v, want all 1", sc)
	}
}

func TestAMIKnownSmall(t *testing.T) {
	// AMI of a partition against itself is 1; against its complement split
	// it should be strictly less than NMI-adjusted raw MI.
	truth := []int{0, 0, 1, 1, 0, 1, 0, 1}
	pred := []int{0, 1, 0, 1, 0, 1, 0, 1}
	ami, err := AdjustedMutualInformation(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := NormalizedMutualInformation(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if ami > nmi+1e-9 {
		t.Errorf("AMI (%v) should not exceed NMI (%v) for imperfect partitions", ami, nmi)
	}
}
