package election

import "testing"

// TestLeaderPinned pins Leader to the leaders the one-round MinGUID
// protocol elected over messages before the election became a local
// computation, so no cluster's leader moves.
func TestLeaderPinned(t *testing.T) {
	cases := []struct {
		seed      uint64
		k, leader int
	}{
		{1, 1, 0}, {1, 2, 0}, {1, 4, 0}, {1, 8, 0}, {1, 16, 8},
		{7, 1, 0}, {7, 2, 1}, {7, 4, 1}, {7, 8, 1}, {7, 16, 1},
		{42, 1, 0}, {42, 2, 0}, {42, 4, 0}, {42, 8, 7}, {42, 16, 12},
		{0xDEADBEEF, 1, 0}, {0xDEADBEEF, 2, 1}, {0xDEADBEEF, 4, 3}, {0xDEADBEEF, 8, 7}, {0xDEADBEEF, 16, 10},
	}
	for _, c := range cases {
		if got := Leader(c.seed, c.k); got != c.leader {
			t.Errorf("Leader(%d, %d) = %d, want %d", c.seed, c.k, got, c.leader)
		}
	}
}

// TestMinGUIDAgreement checks that Leader is a pure function of (seed, k):
// repeated calls agree, and the winner is a machine of the cluster.
func TestMinGUIDAgreement(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 32} {
		for seed := uint64(0); seed < 3; seed++ {
			l := Leader(seed, k)
			if l < 0 || l >= k {
				t.Fatalf("Leader(%d, %d) = %d, outside the cluster", seed, k, l)
			}
			if again := Leader(seed, k); again != l {
				t.Fatalf("Leader(%d, %d) returned %d, then %d", seed, k, l, again)
			}
		}
	}
}

func TestMinGUIDPicksActualMinimum(t *testing.T) {
	const k = 16
	min := 0
	for i := 1; i < k; i++ {
		if guid(5, i) < guid(5, min) {
			min = i
		}
	}
	if winner := Leader(5, k); winner != min {
		t.Errorf("winner %d but min GUID at %d", winner, min)
	}
}

// TestElectorsDeterministicPerSeed pins that the leader replays per seed
// and that the seed, not the index, decides it.
func TestElectorsDeterministicPerSeed(t *testing.T) {
	seen := make(map[int]bool)
	for seed := uint64(0); seed < 64; seed++ {
		if Leader(seed, 32) != Leader(seed, 32) {
			t.Fatalf("seed %d elected two leaders", seed)
		}
		seen[Leader(seed, 32)] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 seeds elected only %d distinct leaders", len(seen))
	}
}

func TestGUIDsUniqueAndSeedDependent(t *testing.T) {
	const k = 32
	seen := make(map[uint64]bool)
	same := 0
	for i := 0; i < k; i++ {
		g := guid(1, i)
		if seen[g] {
			t.Fatalf("GUID collision")
		}
		seen[g] = true
		if g == guid(2, i) {
			same++
		}
	}
	if same == k {
		t.Errorf("GUIDs identical across seeds")
	}
}
