package explore

import "sort"

// Multi-objective Pareto extraction. All vectors are minimization keys:
// the facade negates maximize-sense objectives before they get here, so
// "smaller is better" holds component-wise throughout this file.

// Dominates reports whether a dominates b: a is no worse in every
// component and strictly better in at least one. Vectors must have equal
// length. Equal vectors do not dominate each other.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// Front returns the indices of the non-dominated vectors, in input order.
// Duplicated vectors are all kept (none dominates its copies); an index
// whose vector is dominated by any other vector is pruned. The result is
// exact — the tests pin it to a brute-force O(n²) pairwise scan — but
// costs O(n·|front|), which is what makes extraction over a 10⁵-point
// analytical screen feasible. If p dominates q then p is no larger in
// every component and strictly smaller in one, so p sorts strictly before
// q lexicographically; scanning in lex order therefore only ever needs to
// test a vector against the archive of survivors found so far.
func Front(vecs [][]float64) []int {
	n := len(vecs)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := vecs[order[a]], vecs[order[b]]
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
		return false
	})
	var archive []int
	for _, i := range order {
		dominated := false
		for _, j := range archive {
			if Dominates(vecs[j], vecs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			archive = append(archive, i)
		}
	}
	sort.Ints(archive) // restore input order
	return archive
}
