package experiments

import (
	"testing"
)

// TestChurnCompleteness is the churn property test: under a seeded
// join/leave/crash schedule with injected message loss, the churn
// entry's bounds must hold — every query comes back, graceful leaves
// lose no keys, and after the schedule quiesces the index converges
// back to the churn-free oracle. It runs under -race in make check, so
// it also shakes the background repair and handoffs for data races.
func TestChurnCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("churn emulation takes a few seconds")
	}
	// Repair every 3 events: with a quarter of the overlay crashing over
	// the schedule, the replica sets need re-filling faster than the
	// entry's cadence or a key can lose all three copies between sweeps.
	res, err := runChurn(Scale{Records: []int{80}, Peers: 24, Seed: 3}, 0.02, 3)
	if err != nil {
		t.Fatalf("runChurn: %v", err)
	}
	t.Logf("\n%s", rendered(t, res))
}
