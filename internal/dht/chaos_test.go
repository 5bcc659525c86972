package dht

// Chaos tests: the fault-injection harness drives the simulated
// network with seeded message loss, duplication and node kills, and the
// tests assert the robustness layer's contract — an acknowledged append
// is never lost while at least one replica of each key survives and
// repair runs between failures, and every operation either completes or
// fails within its deadline.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/store"
)

// chaosConfig is the node configuration the chaos tests run under:
// replicated keys and aggressive, fast retries.
func chaosConfig() Config {
	return Config{
		Replication: 2,
		Retry: RetryPolicy{
			Attempts:    6,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
		},
		RPCTimeout: 2 * time.Second,
	}
}

// buildChaosNetwork is buildNetwork with an explicit node config.
func buildChaosNetwork(t testing.TB, net *Network, n int, cfg Config) []*Node {
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

// repairAll runs one repair pass on every surviving node.
func repairAll(t testing.TB, nodes []*Node, dead map[int]bool) {
	t.Helper()
	for i, nd := range nodes {
		if dead[i] {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := nd.RepairOnce(ctx)
		cancel()
		if err != nil {
			// Individual digests may fail under injected loss; the pass
			// reports the first error but keeps repairing. Only a context
			// expiry is fatal here.
			if ctx.Err() != nil {
				t.Fatalf("repair on node %d ran out of budget: %v", i, err)
			}
		}
	}
}

// TestChaosAckedPostingsSurviveKills is the headline soak: under 20%
// message loss and 10% duplication, every append acknowledged before a
// node kill is still retrievable after three staggered kills with a
// repair pass between them, and the run leaks no goroutines.
func TestChaosAckedPostingsSurviveKills(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	net := NewNetwork()
	nodes := buildChaosNetwork(t, net, 9, chaosConfig())
	net.SetFaults(Faults{Seed: 42, DropProb: 0.20, DupProb: 0.10})

	rng := rand.New(rand.NewSource(7))
	acked := map[string]postings.List{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("l:term%d", i)
		l := randomPostings(rng, 25)
		via := i % len(nodes)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := nodes[via].Append(ctx, key, l)
		cancel()
		if err != nil {
			t.Fatalf("append %q via node %d not acknowledged: %v", key, via, err)
		}
		acked[key] = l
	}

	// Kill three nodes one at a time with a repair pass between kills:
	// the pass restores the replication factor, so no key ever has both
	// of its copies on dead peers.
	dead := map[int]bool{}
	for _, victim := range []int{2, 5, 7} {
		if err := nodes[victim].Close(); err != nil {
			t.Fatal(err)
		}
		dead[victim] = true
		repairAll(t, nodes, dead)
	}

	// Every acknowledged posting is still retrievable, through the
	// still-faulty network, under an explicit deadline.
	for key, want := range acked {
		reader := 0
		for dead[reader] {
			reader++
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := nodes[reader].Get(ctx, key)
		cancel()
		if err != nil {
			t.Fatalf("get %q after kills: %v", key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("get %q after kills: %d postings, want %d (acked data lost)", key, len(got), len(want))
		}
	}

	// The retry/eviction/repair machinery left its footprints.
	if net.Collector.Events(metrics.EventRetry) == 0 {
		t.Error("no retries counted under 20% drop")
	}
	if net.Collector.Events(metrics.EventRepair) == 0 {
		t.Error("no repair pushes counted after kills")
	}

	// Shut everything down and bound the goroutine count: abandoned
	// exchanges and stream pumps must all terminate.
	net.SetFaults(Faults{})
	for i, nd := range nodes {
		if !dead[i] {
			if err := nd.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosCallsRespectDeadlines pins the never-hang half of the
// contract: against a slow peer, calls finish within the caller's
// budget (with a timeout error), not the peer's schedule.
func TestChaosCallsRespectDeadlines(t *testing.T) {
	net := NewNetwork()
	cfg := chaosConfig()
	cfg.Retry = RetryPolicy{} // single attempt: measure the deadline, not the retries
	nodes := buildChaosNetwork(t, net, 4, cfg)
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	// nodes[1] answers every message 300ms late; the caller budgets 50ms.
	net.SetSlow(nodes[1].Self().Addr, 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := nodes[0].call(ctx, nodes[1].Self(), Message{Type: MsgPing, From: nodes[0].Self()})
	if err == nil {
		t.Fatal("call to a slow peer inside a 50ms budget should fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call overshot its deadline: took %v", elapsed)
	}
	net.SetSlow(nodes[1].Self().Addr, 0)

	// With the slowness lifted the same call succeeds again.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := nodes[0].call(ctx2, nodes[1].Self(), Message{Type: MsgPing, From: nodes[0].Self()}); err != nil {
		t.Fatalf("call after restoring the peer: %v", err)
	}
}

// TestChaosDuplicatedAppendsStayIdempotent forces heavy duplication and
// checks that the stores keep lists exact (at-least-once delivery is
// safe end to end).
func TestChaosDuplicatedAppendsStayIdempotent(t *testing.T) {
	net := NewNetwork()
	nodes := buildChaosNetwork(t, net, 5, chaosConfig())
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	net.SetFaults(Faults{Seed: 11, DupProb: 0.9})

	rng := rand.New(rand.NewSource(3))
	want := randomPostings(rng, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Append in two overlapping halves so retries and duplicates overlap
	// existing ranges.
	mid := len(want) / 2
	if err := nodes[1].Append(ctx, "l:dup", want[:mid+10]); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Append(ctx, "l:dup", want[mid-10:]); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[3].Get(ctx, "l:dup")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicated appends corrupted the list: %d postings, want %d", len(got), len(want))
	}
}
