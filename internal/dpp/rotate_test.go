package dpp

import (
	"context"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/metrics"
)

// TestFetchBlockRotatesBeforeRetrying pins the replica-rotation fix: a
// block whose recorded owner is dead must be served by routing the
// pseudo-key to its current holder after a single failed probe, without
// spending any of the retry/backoff budget on the dead address.
func TestFetchBlockRotatesBeforeRetrying(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 50})
	want := seqPostings(300, 10)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	root, err := c.managers[2].Root(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Blocks) < 2 {
		t.Fatalf("list should overflow into blocks, got %d", len(root.Blocks))
	}

	// Point the root's owner hint at an address that never existed — the
	// shape a stale hint takes after the holder departed.
	b := root.Blocks[0]
	b.Owner = "sim://no-such-peer"

	col := c.net.Collector
	base := col.Events(metrics.EventRetry)
	got, err := c.managers[2].fetchBlockFailover(context.Background(), root, b, "", dht.BatchGet{})
	if err != nil {
		t.Fatalf("fetch with stale owner hint: %v", err)
	}
	if len(got) != b.Count {
		t.Fatalf("rotated fetch returned %d postings, block holds %d", len(got), b.Count)
	}
	if retries := col.Events(metrics.EventRetry) - base; retries != 0 {
		t.Fatalf("stale owner hint burned %d retries; rotation must come first", retries)
	}
}
