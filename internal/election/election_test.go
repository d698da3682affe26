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

// TestElectorsDeterministicPerSeed pins that Once replays: the same seed
// elects the same leader, which agrees with MinGUID run in-program.
func TestElectorsDeterministicPerSeed(t *testing.T) {
	cfg := kmachine.Config{K: 32, Seed: 99}
	w1, _, err := Once(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := Once(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Errorf("same seed elected %d then %d", w1, w2)
	}
	if w, _ := runElection(t, 32, 99, 0, MinGUID); w != w1 {
		t.Errorf("Once elected %d, MinGUID %d", w1, w)
	}
}
