package experiments

import (
	"strings"
	"testing"
	"time"

	"kadop/internal/store"
)

// TestDurabilityShape runs the write-path experiment at a small scale
// and checks its per-policy table: one publish per fsync policy plus
// the batched row, on the same corpus.
func TestDurabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("publishes several corpora against disk stores")
	}
	res, err := runDurability(Scale{Records: []int{60}, Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want one per policy plus the batched-always row", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Docs != res.Rows[0].Docs || row.Publish <= 0 || row.Commits <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
	}
	if last := res.Rows[3]; res.Rows[2].Policy != store.FsyncAlways || last.Policy != store.FsyncAlways || !last.Batched {
		t.Fatalf("rows %+v, want always then batched always last", res.Rows)
	}
	// The table is checked here; the gate's bounds in TestThroughputShape.
	out, _ := render(res)
	for _, want := range []string{"fsync", "off", "interval", "always+batch", "docs/s", "commits", "reopen"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestThroughputShape checks the durability experiment's gate: group
// commit cuts the WAL commits of a publish at fsync=always by the
// gated factor, and query latency is sampled idle, next to and during
// a bulk publish (the p99 bound is evaluated without the race
// detector only).
func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("publishes several corpora against disk stores")
	}
	res, err := runDurability(Scale{Records: []int{60}, Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := rendered(t, res)
	if plain, batched := res.Rows[2], res.Rows[3]; batched.Commits >= plain.Commits || batched.docsSec() <= 0 {
		t.Fatalf("group commit did not cut commits: per-op %+v, batched %+v", plain, batched)
	}
	for _, l := range [][]time.Duration{res.Idle, res.Control, res.Busy} {
		if len(l) < durabilityQueries || quantileDur(l, 0.99) <= 0 {
			t.Fatalf("degenerate latency phase %v", l)
		}
		if quantileDur(l, 0.5) > quantileDur(l, 0.99) {
			t.Fatalf("quantiles inverted: %v", l)
		}
	}
	for _, want := range []string{"group commit", "fewer WAL commits", "idle cluster", "bulk publish elsewhere", "during bulk publish", "gate: WAL commits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestQuantileDur(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := quantileDur(ds, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := quantileDur(ds, 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := quantileDur(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// quantileDur must not reorder the caller's samples.
	if ds[0] != 5 || ds[4] != 3 {
		t.Fatalf("input mutated: %v", ds)
	}
}
