package dht

import (
	"context"
	"sync"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
)

// This file holds the routing-table maintenance: eviction on failure and
// periodic bucket refresh, plus the jittered startLoop both it and the
// repair loop (sync.go) run on.

// robust counts one robustness occurrence: in the collector next to the
// traffic it explains, in the node's labeled registry so failure
// handling shows up on /metrics next to the RPC counters, and in the
// flight ring (when one is installed) so a dump shows the individual
// occurrences in order.
func (n *Node) robust(ev metrics.Event, event string) {
	n.collector.CountEvent(ev)
	n.reg.Counter("kadop_robustness_total",
		"Robustness events: repair pushes/pulls, handoff keys, evictions, bucket refreshes.",
		metrics.Label{Key: "event", Value: event}).Add(1)
	if fr := n.flight.Load(); fr != nil {
		fr.Record(flight.Event{Kind: flight.KindEvent, Name: event, Peer: n.self.Addr})
	}
}

// evict drops a contact from the routing table and accounts the
// eviction. It is the failure detector: a contact that fails an RPC
// after retries is evicted at once. The replacement cache refills its
// bucket, and a live peer re-enters the table on its next message.
func (n *Node) evict(id ID) {
	if n.table.Remove(id) {
		n.robust(metrics.EventEviction, "eviction")
	}
}

// RefreshOnce probes every stale bucket with a lookup for a random
// identifier in the bucket's range, verifying the bucket's contacts
// and discovering replacements for dead ones. It returns the number of
// buckets refreshed. Buckets touched by ordinary lookup traffic within
// maxAge are skipped — only genuinely idle corners of the table pay
// refresh traffic.
func (n *Node) RefreshOnce(ctx context.Context, maxAge time.Duration) (int, error) {
	refreshed := 0
	var firstErr error
	for _, bucket := range n.table.StaleBuckets(maxAge) {
		if err := ctx.Err(); err != nil {
			return refreshed, err
		}
		n.maintMu.Lock()
		target := n.table.RandomIDInBucket(bucket, n.maintRand)
		n.maintMu.Unlock()
		if _, err := n.LookupContext(ctx, target); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		refreshed++
		n.robust(metrics.EventRefresh, "bucket-refresh")
	}
	return refreshed, firstErr
}

// startLoop runs fn forever at roughly the given interval. Each pass
// runs under a deadline of one interval, so a stuck pass cannot pile up
// behind the next; pass spacing is jittered ±10% (seeded) so a cluster
// started in lockstep does not maintain in lockstep forever. It returns
// an idempotent stop function.
func (n *Node) startLoop(interval time.Duration, fn func(context.Context)) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			n.maintMu.Lock()
			jitter := time.Duration((n.maintRand.Float64()*0.2 - 0.1) * float64(interval))
			n.maintMu.Unlock()
			t := time.NewTimer(interval + jitter)
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			fn(ctx)
			cancel()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
