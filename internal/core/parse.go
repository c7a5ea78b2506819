package core

import (
	"fmt"
	"strings"
)

// ParseRanker maps a ranker name (nn, knn, kthnn or db, case-insensitive)
// and its parameters to the ranking function: k is the neighbor count of
// knn and kthnn, eps the radius α of db. It is the one mapping behind the
// daemons' -ranker/-k/-eps flags and the load scenarios' detector block,
// so processes handed the same spec rank identically. Parameters the
// rankers' zero-value defaults would silently replace are rejected.
func ParseRanker(name string, k int, eps float64) (Ranker, error) {
	name = strings.ToLower(name)
	switch name {
	case "nn":
		return NN(), nil
	case "knn", "kthnn":
		if k < 1 {
			return nil, fmt.Errorf("ranker %s: k must be at least 1, got %d", name, k)
		}
		if name == "knn" {
			return KNN{K: k}, nil
		}
		return KthNN{K: k}, nil
	case "db":
		if !(eps > 0) {
			return nil, fmt.Errorf("ranker db: eps must be positive, got %v", eps)
		}
		return CountWithin{Alpha: eps}, nil
	default:
		return nil, fmt.Errorf("unknown ranker %q (want nn, knn, kthnn or db)", name)
	}
}
