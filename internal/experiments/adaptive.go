package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/obs/cluster"
	"kadop/internal/pattern"
	"kadop/internal/replicate"
)

// adaptiveQueries is the Zipf population of the adaptive phase: the
// head ranks are the hot-term queries the controller must notice, the
// tail keeps background traffic on other peers so the Gini comparison
// is not a degenerate two-point distribution.
var adaptiveQueries = append(slices.Clip(hotQueries),
	`//inproceedings//author`,
	`//article//year`,
	`//article//journal`,
	`//inproceedings//booktitle`,
)

// slowHomePenalty emulates saturation at the hot terms' home peers:
// every message they send or receive costs this much extra, the way a
// peer at its bandwidth limit stretches every transfer. The simulated
// network has no queueing, so without it a perfectly spread load and a
// single scorching peer would show identical latencies.
const slowHomePenalty = 2 * time.Millisecond

// adaptiveResult compares the same skewed workload before and after
// the replication controllers engage. Both phases run under identical
// conditions — same seeded Zipf query stream, same slow home peers —
// so any improvement is attributable to the promoted replicas and the
// load-aware replica selection alone.
type adaptiveResult struct {
	GiniBefore, GiniAfter float64       // per-peer served-bytes inequality
	P99Before, P99After   time.Duration // per-query latency tail
	Promoted              int           // keys promoted across the cluster
	Queries               int           // queries per phase
}

// bounds: the closed loop must promote and strictly flatten the
// serving load. The p99 is reported, not gated: a query is as slow as
// its slowest term, and under the static slow-home emulation that is a
// term the controller does not move (a cold list at a slowed home, or a
// promoted copy on a peer that is itself a slowed home), so promotion
// ties the tail instead of lowering it until the saturation model
// follows load.
func (a *adaptiveResult) bounds() []bound {
	return []bound{
		{"keys promoted by the controllers", float64(a.Promoted), ">=", 1},
		{"serving-load Gini after promotion (before)", a.GiniAfter, "<", a.GiniBefore},
	}
}

// runLoadAdaptive measures the closed loop end to end: a cluster whose
// hot lists stay inline at their home peers (the skewed regime the
// static DPP variant exists to avoid), a seeded Zipf query stream, and
// the per-peer replication controllers ticked once mid-run under a
// synthetic clock. Phase A runs with the controllers idle; the tick
// rolls the load windows, reads the hot-term sketches, pushes the hot
// keys to extra replicas and advertises them; phase B replays the same
// stream against the now-replicated index.
func runLoadAdaptive(s Scale) (*adaptiveResult, error) {
	// Synthetic clock: leases and gauge windows advance only when the
	// experiment says so, keeping the run schedule-independent.
	var now atomic.Int64
	now.Store(time.Unix(1_700_000_000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	advance := func(d time.Duration) { now.Add(int64(d)) }

	cfg := kadop.Config{
		UseDPP: true,
		// Blocks larger than any list: every term stays inline at its
		// home peer, which is exactly the hot-spot regime.
		DPP: dpp.Options{BlockSize: 1 << 20},
		Replicate: replicate.Config{
			Enabled:  true,
			Extra:    2,
			HotBytes: 4 << 10,
			Lease:    time.Hour, // ticks are explicit; leases must span the run
			Now:      clock,
			Seed:     s.Seed,
		},
	}
	var res *adaptiveResult
	err := withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, s.dblp(s.records()), func(cl *Cluster) (err error) {
		defer func() {
			for _, p := range cl.Peers {
				p.Replicator().Stop()
			}
		}()
		res, err = adaptivePhases(cl, s.Seed, advance)
		return err
	})
	return res, err
}

// adaptivePhases replays the Zipf stream against a loaded deployment
// whose controllers are idle, advances the synthetic clock, ticks them
// once, and replays it again.
func adaptivePhases(cl *Cluster, seed int64, advance func(time.Duration)) (*adaptiveResult, error) {
	queries := parseAll(adaptiveQueries)

	// Saturate the hot queries' home peers (see slowHomePenalty). The
	// hot head of the Zipf stream is the hotQueries ranks.
	slowed := map[string]bool{}
	for _, qs := range hotQueries {
		for _, t := range pattern.MustParse(qs).Terms() {
			owner, err := cl.Nodes[0].Locate(t.Key())
			if err != nil {
				return nil, fmt.Errorf("locate hot home: %w", err)
			}
			if !slowed[owner.Addr] {
				slowed[owner.Addr] = true
				cl.Net.SetSlow(owner.Addr, slowHomePenalty)
			}
		}
	}

	nq := 30 * loadRepeats
	querier := cl.NonOwnerPeer(queries[0])

	// phase replays the seeded Zipf stream — the same stream on every
	// call, so phase B replays phase A's query mix exactly — and reports
	// the served-bytes Gini over this phase's per-peer deltas and the
	// per-query p99.
	phase := func() (float64, time.Duration, error) {
		z := rand.NewZipf(rand.New(rand.NewSource(seed+0x5eed)), 1.3, 1, uint64(len(queries)-1))
		before := make([]int64, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			before[i] = nd.Load().BytesServed()
		}
		durs := make([]time.Duration, 0, nq)
		for i := 0; i < nq; i++ {
			q := queries[z.Uint64()]
			start := time.Now()
			if _, err := querier.Query(q, kadop.QueryOptions{IndexOnly: true}); err != nil {
				return 0, 0, fmt.Errorf("adaptive query: %w", err)
			}
			durs = append(durs, time.Since(start))
		}
		deltas := make([]int64, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			deltas[i] = nd.Load().BytesServed() - before[i]
		}
		return cluster.Gini(deltas), quantileDur(durs, 0.99), nil
	}

	giniA, p99A, err := phase()
	if err != nil {
		return nil, err
	}

	// Engage: one control tick per peer. The tick rolls the gauge
	// window (phase A becomes the "recent" reading), reads the hot-term
	// sketch, and promotes — the hot homes push their lists to extra
	// replicas and advertise them under the lease.
	advance(time.Second)
	promoted := 0
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range cl.Peers {
		n, _, err := p.Replicator().Tick(ctx)
		if err != nil {
			return nil, fmt.Errorf("controller tick: %w", err)
		}
		promoted += n
	}

	giniB, p99B, err := phase()
	if err != nil {
		return nil, err
	}

	return &adaptiveResult{
		GiniBefore: giniA, GiniAfter: giniB,
		P99Before: p99A, P99After: p99B,
		Promoted: promoted, Queries: nq,
	}, nil
}
