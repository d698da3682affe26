package core

import (
	"fmt"

	"distknn/internal/kmachine"
	"distknn/internal/points"
)

// Algorithm names one distributed ℓ-NN protocol of the roster. The zero
// value is the paper's Algorithm 2.
type Algorithm int

const (
	// Alg2 is the paper's Algorithm 2: O(log ℓ) rounds w.h.p.
	Alg2 Algorithm = iota
	// Direct runs Algorithm 1 on all ≤ kℓ candidates: O(log ℓ + log k)
	// rounds.
	Direct
	// Simple is the gather-everything baseline: Θ(ℓ) rounds.
	Simple
	// SaukasSong is the deterministic weighted-median baseline.
	SaukasSong
	// BinSearch bisects the key domain: Θ(domain bits) rounds.
	BinSearch
)

// roster is the one table of algorithms, indexed by Algorithm: the name
// that logs, tables and command lines use, and the per-machine protocol,
// which every machine calls with the same Config and its own candidates.
var roster = [...]struct {
	name     string
	protocol func(m kmachine.Env, cfg Config, local []points.Item) (Result, error)
}{
	Alg2:       {"alg2", KNN},
	Direct:     {"direct", DirectKNN},
	Simple:     {"simple", SimpleKNN},
	SaukasSong: {"saukas-song", SaukasSongKNN},
	BinSearch:  {"binsearch", BinarySearchKNN},
}

// Algorithms lists the roster in order, Alg2 first.
func Algorithms() []Algorithm {
	all := make([]Algorithm, len(roster))
	for i := range all {
		all[i] = Algorithm(i)
	}
	return all
}

// ParseAlgorithm returns the algorithm String names name.
func ParseAlgorithm(name string) (Algorithm, bool) {
	for _, a := range Algorithms() {
		if roster[a].name == name {
			return a, true
		}
	}
	return 0, false
}

// String names the algorithm for logs, tables and command lines.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(roster) {
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
	return roster[a].name
}

// Run answers queries ℓ-NN queries with alg as one simulator run under sim:
// every machine answers query 0, then 1, and so on back to back under cfg,
// drawing its candidates for query qi from local(id, qi) inside its own
// program, so the local top-ℓ step is measured as machine compute. It
// returns res[qi][id], every machine's Result for every query, and the
// run's metrics.
func Run(sim kmachine.Config, alg Algorithm, cfg Config, queries int,
	local func(id, qi int) []points.Item) ([][]Result, *kmachine.Metrics, error) {
	protocol := KNN // a value outside the roster runs Algorithm 2
	if alg >= 0 && int(alg) < len(roster) {
		protocol = roster[alg].protocol
	}
	res := make([][]Result, queries)
	for qi := range res {
		res[qi] = make([]Result, sim.K)
	}
	met, err := kmachine.Run(sim, func(m kmachine.Env) error {
		for qi := range res {
			r, err := protocol(m, cfg, local(m.ID(), qi))
			if err != nil {
				if queries > 1 {
					err = fmt.Errorf("query %d: %w", qi, err)
				}
				return err
			}
			res[qi][m.ID()] = r
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, met, nil
}
