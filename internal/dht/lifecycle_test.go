package dht

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/store"
)

// buildNetworkCfg is buildNetwork with an explicit node configuration.
func buildNetworkCfg(t testing.TB, net *Network, n int, cfg Config) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(net.NewEndpoint(), store.NewMem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// TestBucketStaleness pins the refresher's bucket selection: a
// non-empty bucket no lookup has targeted is stale, a touched bucket
// is not, and empty buckets never are.
func TestBucketStaleness(t *testing.T) {
	self := PeerIDFromSeed("staleness-self")
	tb := NewTable(self, 4)
	other := PeerIDFromSeed("staleness-other")
	tb.Update(Contact{ID: other, Addr: "x"})
	bucket := self.BucketIndex(other)

	stale := tb.StaleBuckets(time.Hour)
	if len(stale) != 1 || stale[0] != bucket {
		t.Fatalf("StaleBuckets = %v, want [%d]: only the one non-empty, never-touched bucket", stale, bucket)
	}

	tb.Touch(other)
	if got := tb.StaleBuckets(time.Hour); len(got) != 0 {
		t.Fatalf("StaleBuckets after Touch = %v, want none", got)
	}
	// With a zero max age, even a just-touched bucket is due again.
	if got := tb.StaleBuckets(0); len(got) != 1 || got[0] != bucket {
		t.Fatalf("StaleBuckets(0) = %v, want [%d]", got, bucket)
	}
	// Touching an identifier whose bucket is empty must not make that
	// bucket eligible: staleness tracks only buckets holding contacts.
	tb.Touch(PeerIDFromSeed("staleness-elsewhere"))
	if got := tb.StaleBuckets(0); len(got) != 1 || got[0] != bucket {
		t.Fatalf("StaleBuckets(0) after unrelated Touch = %v, want [%d]", got, bucket)
	}
}

// TestRandomIDInBucket pins the refresh target construction: the
// generated identifier must land in exactly the requested bucket.
func TestRandomIDInBucket(t *testing.T) {
	self := PeerIDFromSeed("refresh-target-self")
	tb := NewTable(self, 4)
	rng := rand.New(rand.NewSource(42))
	for _, bucket := range []int{0, 1, 7, 8, 63, 100, IDBytes*8 - 1} {
		for trial := 0; trial < 32; trial++ {
			id := tb.RandomIDInBucket(bucket, rng)
			if got := self.BucketIndex(id); got != bucket {
				t.Fatalf("RandomIDInBucket(%d) -> %v lands in bucket %d", bucket, id, got)
			}
		}
	}
}

// TestRefreshOnce exercises the refresher end to end: a fresh node has
// stale buckets and refreshes them; immediately afterwards nothing is
// stale, so a second pass does nothing.
func TestRefreshOnce(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetworkCfg(t, net, 8, Config{})
	ctx := context.Background()
	// Lookups during bootstrap touched some buckets; use a zero-age
	// pass first to force every non-empty bucket stale, then a long-age
	// pass that must find nothing left to do.
	n, err := nodes[3].RefreshOnce(ctx, 0)
	if err != nil {
		t.Fatalf("RefreshOnce: %v", err)
	}
	if n == 0 {
		t.Fatal("RefreshOnce(0) refreshed no buckets on a populated table")
	}
	if got := net.Collector.Events(metrics.EventRefresh); got < int64(n) {
		t.Fatalf("EventRefresh = %d, want >= %d", got, n)
	}
	again, err := nodes[3].RefreshOnce(ctx, time.Hour)
	if err != nil {
		t.Fatalf("second RefreshOnce: %v", err)
	}
	if again != 0 {
		t.Fatalf("second RefreshOnce refreshed %d buckets, want 0 (all just touched)", again)
	}
}

// TestFailedCallEvictsPeer pins the failure detector: a call that
// fails after its retries evicts the peer at once, before it returns,
// and counts one eviction.
func TestFailedCallEvictsPeer(t *testing.T) {
	net := NewNetwork()
	cfg := Config{RPCTimeout: 100 * time.Millisecond, Retry: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond}}
	nodes := buildNetworkCfg(t, net, 2, cfg)
	a, b := nodes[0], nodes[1]

	net.Partition(b.Self().Addr)
	net.Collector.Reset()
	if _, err := a.call(context.Background(), b.Self(), Message{Type: MsgPing, From: a.Self()}); err == nil {
		t.Fatal("call to a partitioned peer should fail")
	}
	if got := a.Table().Size(); got != 0 {
		t.Fatalf("dead peer not evicted: table size %d", got)
	}
	if got := net.Collector.Events(metrics.EventEviction); got != 1 {
		t.Fatalf("%d evictions counted, want 1", got)
	}
	if got := net.Collector.Events(metrics.EventRetry); got != 2 {
		t.Fatalf("%d retries before the eviction, want 2 (3 attempts)", got)
	}
}

// TestGracefulLeaveLosesNoKeys pins the acceptance criterion directly:
// after a key-holding node leaves gracefully, every key it held is
// still fully readable through the overlay.
func TestGracefulLeaveLosesNoKeys(t *testing.T) {
	net := NewNetwork()
	cfg := Config{Replication: 2}
	nodes := buildNetworkCfg(t, net, 10, cfg)
	rng := rand.New(rand.NewSource(9))

	want := map[string]int{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("leave-key-%d", i)
		list := randomPostings(rng, 5+rng.Intn(20))
		if err := nodes[i%len(nodes)].Append(context.Background(), key, list); err != nil {
			t.Fatalf("append %s: %v", key, err)
		}
		if got, err := nodes[0].Get(context.Background(), key); err == nil {
			want[key] = len(got)
		} else {
			t.Fatalf("baseline get %s: %v", key, err)
		}
	}

	// Leave the node holding the most keys, so the handoff actually has
	// work to do.
	leaver := nodes[1]
	for _, nd := range nodes[1:] {
		if a, _ := nd.Store().Terms(); func() bool { b, _ := leaver.Store().Terms(); return len(a) > len(b) }() {
			leaver = nd
		}
	}
	held, err := leaver.Store().Terms()
	if err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("picked a leaver holding no keys; test needs a key holder")
	}
	moved, err := leaver.Leave(context.Background())
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if moved != len(held) {
		t.Fatalf("Leave moved %d keys, held %d", moved, len(held))
	}
	if err := leaver.Close(); err != nil {
		t.Fatal(err)
	}
	if got := net.Collector.Events(metrics.EventHandoff); got != int64(moved) {
		t.Fatalf("EventHandoff = %d, want %d", got, moved)
	}

	for key, count := range want {
		list, err := nodes[0].Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s after leave: %v", key, err)
		}
		if len(list) < count {
			t.Fatalf("key %s lost postings after graceful leave: %d < %d", key, len(list), count)
		}
	}
}

// TestPullOwnedOnJoin pins the pull direction of handoff: a joiner
// lands inside some keys' owner sets and PullOwnedOnce fetches those
// keys without waiting for the incumbents' push loops.
func TestPullOwnedOnJoin(t *testing.T) {
	net := NewNetwork()
	cfg := Config{Replication: 3}
	nodes := buildNetworkCfg(t, net, 6, cfg)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("join-key-%d", i)
		if err := nodes[i%len(nodes)].Append(context.Background(), key, randomPostings(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}

	joiner, err := NewNode(net.NewEndpoint(), store.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Bootstrap(nodes[0].Self()); err != nil {
		t.Fatal(err)
	}
	pulled, err := joiner.PullOwnedOnce(context.Background())
	if err != nil {
		t.Fatalf("PullOwnedOnce: %v", err)
	}
	// In a 7-node overlay with Replication 3 the joiner is an owner of
	// roughly 3/7 of the keys; demanding at least one keeps the test
	// robust to ID geometry while still proving the pull works.
	if pulled == 0 {
		t.Fatal("joiner pulled no keys despite owning some")
	}
	terms, err := joiner.Store().Terms()
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != pulled {
		t.Fatalf("joiner store has %d terms, PullOwnedOnce reported %d", len(terms), pulled)
	}
	// Every pulled key must be one the joiner actually owns, at the full
	// replica size.
	for _, term := range terms {
		owners, err := joiner.Owners(context.Background(), term)
		if err != nil {
			t.Fatal(err)
		}
		mine := false
		for _, o := range owners {
			if o.ID == joiner.Self().ID {
				mine = true
			}
		}
		if !mine {
			t.Fatalf("joiner pulled %s but is not among its owners", term)
		}
		c, err := joiner.Store().Count(term)
		if err != nil || c != 8 {
			t.Fatalf("joiner holds %d postings of %s, want 8 (err %v)", c, term, err)
		}
	}
}
