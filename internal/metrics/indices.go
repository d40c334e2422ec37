package metrics

import (
	"math"
)

// Accuracy computes Clustering Accuracy (ACC): the fraction of objects whose
// cluster label matches their true class under the optimal one-to-one mapping
// between clusters and classes (found with the Hungarian solver). Range [0,1].
func Accuracy(truth, pred []int) (float64, error) {
	c, err := newContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	k := len(c.a)
	if len(c.b) > k {
		k = len(c.b)
	}
	// Maximize matched counts = minimize (maxCell - count) over a padded
	// square matrix.
	var maxCell float64
	for _, row := range c.cell {
		for _, v := range row {
			if f := float64(v); f > maxCell {
				maxCell = f
			}
		}
	}
	cost := make([][]float64, k)
	for i := range cost {
		cost[i] = make([]float64, k)
		for j := range cost[i] {
			var cnt float64
			if i < len(c.cell) && j < len(c.cell[i]) {
				cnt = float64(c.cell[i][j])
			}
			cost[i][j] = maxCell - cnt
		}
	}
	assign, _, err := Hungarian(cost)
	if err != nil {
		return 0, err
	}
	var matched float64
	for i, j := range assign {
		if i < len(c.cell) && j < len(c.cell[i]) {
			matched += float64(c.cell[i][j])
		}
	}
	return matched / float64(c.n), nil
}

// comb2 returns C(x,2) as float64.
func comb2(x int) float64 {
	return float64(x) * float64(x-1) / 2
}

// AdjustedRandIndex computes ARI: pairwise agreement between the two
// labelings corrected for chance. Range [-1, 1]; 1 for identical partitions,
// ~0 for independent ones.
func AdjustedRandIndex(truth, pred []int) (float64, error) {
	c, err := newContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	if c.n < 2 {
		// A lone object forms no pair: both partitions are trivial, and
		// the chance correction below would be 0/0.
		return 1, nil
	}
	var sumCells, sumA, sumB float64
	for i, row := range c.cell {
		sumA += comb2(c.a[i])
		for _, v := range row {
			sumCells += comb2(v)
		}
	}
	for _, v := range c.b {
		sumB += comb2(v)
	}
	total := comb2(c.n)
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		// Both partitions are trivial (single cluster or all singletons).
		return 1, nil
	}
	return (sumCells - expected) / (maxIndex - expected), nil
}

// FowlkesMallows computes the FM score: the geometric mean of pairwise
// precision and recall. Range [0,1].
func FowlkesMallows(truth, pred []int) (float64, error) {
	c, err := newContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	var tp, sumA, sumB float64
	for i, row := range c.cell {
		sumA += comb2(c.a[i])
		for _, v := range row {
			tp += comb2(v)
		}
	}
	for _, v := range c.b {
		sumB += comb2(v)
	}
	if sumA == 0 || sumB == 0 {
		return 0, nil
	}
	return tp / math.Sqrt(sumA*sumB), nil
}

// entropy returns the Shannon entropy (nats) of cluster sizes.
func entropy(sizes []int, n int) float64 {
	var h float64
	for _, s := range sizes {
		if s == 0 {
			continue
		}
		p := float64(s) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// mutualInformation returns MI (nats) of the contingency table.
func mutualInformation(c *contingency) float64 {
	var mi float64
	n := float64(c.n)
	for i, row := range c.cell {
		for j, v := range row {
			if v == 0 {
				continue
			}
			pij := float64(v) / n
			mi += pij * math.Log(n*float64(v)/(float64(c.a[i])*float64(c.b[j])))
		}
	}
	if mi < 0 {
		mi = 0 // guard against rounding
	}
	return mi
}

// NormalizedMutualInformation computes NMI with the arithmetic-mean
// normalization: MI / ((H(U)+H(V))/2). Range [0,1].
func NormalizedMutualInformation(truth, pred []int) (float64, error) {
	c, err := newContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	hu, hv := entropy(c.a, c.n), entropy(c.b, c.n)
	if hu == 0 && hv == 0 {
		return 1, nil
	}
	denom := (hu + hv) / 2
	if denom == 0 {
		return 0, nil
	}
	return mutualInformation(c) / denom, nil
}

// expectedMutualInformation computes E[MI] under the permutation
// (hypergeometric) model, the exact formula used by the AMI definition.
func expectedMutualInformation(c *contingency) float64 {
	n := c.n
	fn := float64(n)
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	lgN := lg(n)
	var emi float64
	for i := range c.a {
		ai := c.a[i]
		if ai == 0 {
			continue
		}
		for j := range c.b {
			bj := c.b[j]
			if bj == 0 {
				continue
			}
			lo := ai + bj - n
			if lo < 1 {
				lo = 1
			}
			hi := ai
			if bj < hi {
				hi = bj
			}
			for nij := lo; nij <= hi; nij++ {
				term := float64(nij) / fn * math.Log(fn*float64(nij)/(float64(ai)*float64(bj)))
				// P(nij) from the hypergeometric distribution.
				logP := lg(ai) + lg(bj) + lg(n-ai) + lg(n-bj) -
					lgN - lg(nij) - lg(ai-nij) - lg(bj-nij) - lg(n-ai-bj+nij)
				emi += term * math.Exp(logP)
			}
		}
	}
	return emi
}

// AdjustedMutualInformation computes AMI with the arithmetic-mean
// normalization: (MI − E[MI]) / (mean(H(U),H(V)) − E[MI]). Range ≈ [-1, 1];
// 1 for identical partitions, ~0 for independent ones.
//
// The exact E[MI] computation is O(k_true·k_pred·n) in the worst case, which
// is fine for the cluster counts in this repository's experiments.
func AdjustedMutualInformation(truth, pred []int) (float64, error) {
	c, err := newContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	hu, hv := entropy(c.a, c.n), entropy(c.b, c.n)
	if hu == 0 && hv == 0 {
		return 1, nil
	}
	mi := mutualInformation(c)
	emi := expectedMutualInformation(c)
	denom := (hu+hv)/2 - emi
	if math.Abs(denom) < 1e-15 {
		return 0, nil
	}
	return (mi - emi) / denom, nil
}

// Scores bundles the four indices reported in Table III of the paper.
type Scores struct {
	ACC float64
	ARI float64
	AMI float64
	FM  float64
}

// Evaluate computes all four Table-III indices for one labeling pair.
func Evaluate(truth, pred []int) (Scores, error) {
	var s Scores
	var err error
	if s.ACC, err = Accuracy(truth, pred); err != nil {
		return s, err
	}
	if s.ARI, err = AdjustedRandIndex(truth, pred); err != nil {
		return s, err
	}
	if s.AMI, err = AdjustedMutualInformation(truth, pred); err != nil {
		return s, err
	}
	if s.FM, err = FowlkesMallows(truth, pred); err != nil {
		return s, err
	}
	return s, nil
}
