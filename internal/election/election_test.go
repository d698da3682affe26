package election

import (
	"sync"
	"testing"

	"distknn/internal/kmachine"
)

// runElection executes fn on every machine and asserts all machines agree on
// the winner; it returns the winner and the run metrics.
func runElection(t *testing.T, k int, seed uint64, bandwidth int,
	fn func(m kmachine.Env) (int, error)) (int, *kmachine.Metrics) {
	t.Helper()
	var mu sync.Mutex
	winners := make([]int, k)
	met, err := kmachine.Run(kmachine.Config{K: k, Seed: seed, BandwidthBytes: bandwidth},
		func(m kmachine.Env) error {
			w, err := fn(m)
			if err != nil {
				return err
			}
			mu.Lock()
			winners[m.ID()] = w
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatalf("election run failed: %v", err)
	}
	for i := 1; i < k; i++ {
		if winners[i] != winners[0] {
			t.Fatalf("machines disagree: machine %d says %d, machine 0 says %d",
				i, winners[i], winners[0])
		}
	}
	if winners[0] < 0 || winners[0] >= k {
		t.Fatalf("winner %d out of range", winners[0])
	}
	return winners[0], met
}

func TestMinGUIDAgreement(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 32} {
		for seed := uint64(0); seed < 3; seed++ {
			runElection(t, k, seed, 0, MinGUID)
		}
	}
}

func TestMinGUIDPicksActualMinimum(t *testing.T) {
	k := 16
	guids := make([]uint64, k)
	var mu sync.Mutex
	winner, _ := runElection(t, k, 5, 0, func(m kmachine.Env) (int, error) {
		mu.Lock()
		guids[m.ID()] = m.GUID()
		mu.Unlock()
		return MinGUID(m)
	})
	min := 0
	for i := 1; i < k; i++ {
		if guids[i] < guids[min] {
			min = i
		}
	}
	if winner != min {
		t.Errorf("winner %d but min GUID at %d", winner, min)
	}
}

func TestMinGUIDOneRound(t *testing.T) {
	_, met := runElection(t, 8, 7, 0, MinGUID)
	if met.Rounds != 1 {
		t.Errorf("MinGUID took %d rounds, want 1", met.Rounds)
	}
	if met.Messages != 8*7 {
		t.Errorf("MinGUID sent %d messages, want 56", met.Messages)
	}
}

func TestSublinearAgreement(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 16, 64, 128} {
		for seed := uint64(0); seed < 5; seed++ {
			runElection(t, k, seed, 0, func(m kmachine.Env) (int, error) {
				return Sublinear(m)
			})
		}
	}
}

func TestSublinearConstantRounds(t *testing.T) {
	for _, k := range []int{2, 16, 128} {
		_, met := runElection(t, k, 11, 0, func(m kmachine.Env) (int, error) {
			return Sublinear(m)
		})
		if met.Rounds != 3 {
			t.Errorf("k=%d: Sublinear took %d rounds, want 3", k, met.Rounds)
		}
		if met.Dangling != 0 {
			t.Errorf("k=%d: %d dangling messages", k, met.Dangling)
		}
	}
}

func TestSublinearMessageComplexitySublinearPhases(t *testing.T) {
	// Candidate/referee traffic must be far below the Θ(k²) of MinGUID;
	// total includes the Θ(k) announcement. Compare against k²/2 as the
	// "clearly not all-to-all" bar, and require the announce-adjusted
	// remainder to be o(k²).
	k := 256
	_, met := runElection(t, k, 13, 0, func(m kmachine.Env) (int, error) {
		return Sublinear(m)
	})
	if met.Messages >= int64(k*k)/2 {
		t.Errorf("sublinear election sent %d messages, not sublinear vs k²=%d", met.Messages, k*k)
	}
}

func TestSublinearRejectsTinyBandwidth(t *testing.T) {
	_, err := kmachine.Run(kmachine.Config{K: 4, Seed: 1, BandwidthBytes: 8},
		func(m kmachine.Env) error {
			_, err := Sublinear(m)
			return err
		})
	if err == nil {
		t.Errorf("bandwidth below one election message per round must be rejected")
	}
}

func TestSublinearUnlimitedBandwidth(t *testing.T) {
	runElection(t, 32, 17, -1, func(m kmachine.Env) (int, error) {
		return Sublinear(m)
	})
}

func TestElectorsDeterministicPerSeed(t *testing.T) {
	w1, _ := runElection(t, 32, 99, 0, func(m kmachine.Env) (int, error) {
		return Sublinear(m)
	})
	w2, _ := runElection(t, 32, 99, 0, func(m kmachine.Env) (int, error) {
		return Sublinear(m)
	})
	if w1 != w2 {
		t.Errorf("same seed elected %d then %d", w1, w2)
	}
}
