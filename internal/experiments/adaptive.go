package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/obs/cluster"
	"kadop/internal/pattern"
	"kadop/internal/replicate"
	"kadop/internal/workload"
)

// adaptiveQueries is the Zipf population of the adaptive phase: the
// head ranks are the hot-term queries the controller must notice, the
// tail keeps background traffic on other peers so the Gini comparison
// is not a degenerate two-point distribution.
var adaptiveQueries = []string{
	Fig3Query,
	`//article//author`,
	`//article//title`,
	`//inproceedings//author`,
	`//article//year`,
	`//article//journal`,
	`//inproceedings//booktitle`,
}

// slowHomePenalty emulates saturation at the hot terms' home peers:
// every message they send or receive costs this much extra, the way a
// peer at its bandwidth limit stretches every transfer. The simulated
// network has no queueing, so without it a perfectly spread load and a
// single scorching peer would show identical latencies.
const slowHomePenalty = 2 * time.Millisecond

// AdaptiveResult compares the same skewed workload before and after
// the replication controllers engage. Both phases run under identical
// conditions — same seeded Zipf query stream, same slow home peers —
// so any improvement is attributable to the promoted replicas and the
// load-aware replica selection alone.
type AdaptiveResult struct {
	GiniBefore, GiniAfter float64       // per-peer served-bytes inequality
	P99Before, P99After   time.Duration // per-query latency tail
	Promoted              int           // keys promoted across the cluster
	Queries               int           // queries per phase
}

// Err returns nil when the closed loop did its job: at least one
// promotion happened and both the serving-load inequality and the
// latency tail strictly improved. Format reports it.
func (a *AdaptiveResult) Err() error { return a.check(true) }

// check is Err with the wall-clock p99 comparison optional. The load
// gate (`make gate-smoke`) and the test suite run it without: a query
// is as slow as its slowest term, and under the static slow-home
// emulation that is a term the controller does not move (a cold list
// at a slowed home, or a promoted copy on a peer that is itself a
// slowed home), so promotion ties the p99 instead of lowering it. The
// gate is promotion and the byte-count Gini until the saturation model
// follows load (ROADMAP).
func (a *AdaptiveResult) check(strictTail bool) error {
	if a.Promoted == 0 {
		return fmt.Errorf("experiments: adaptive phase promoted nothing")
	}
	if a.GiniAfter >= a.GiniBefore {
		return fmt.Errorf("experiments: adaptive phase did not flatten load: Gini %.3f -> %.3f",
			a.GiniBefore, a.GiniAfter)
	}
	if strictTail && a.P99After >= a.P99Before {
		return fmt.Errorf("experiments: adaptive phase did not improve the tail: p99 %s -> %s",
			a.P99Before, a.P99After)
	}
	return nil
}

// Format renders the before/after comparison.
func (a *AdaptiveResult) Format() string {
	out := "--- adaptive: hot-term replication controller engaged mid-run ---\n"
	out += table(
		[]string{"phase", "queries", "Gini", "p99"},
		[][]string{
			{"before", fmt.Sprintf("%d", a.Queries), fmt.Sprintf("%.3f", a.GiniBefore), ms(a.P99Before) + "ms"},
			{"after", fmt.Sprintf("%d", a.Queries), fmt.Sprintf("%.3f", a.GiniAfter), ms(a.P99After) + "ms"},
		},
	)
	out += fmt.Sprintf("controller promoted %d keys; ", a.Promoted)
	if a.Err() == nil {
		out += "Gini and p99 strictly improved after promotion.\n"
	} else {
		out += fmt.Sprintf("WARNING: %v\n", a.Err())
	}
	return out
}

// runLoadAdaptive measures the closed loop end to end: a cluster whose
// hot lists stay inline at their home peers (the skewed regime the
// static DPP variant exists to avoid), a seeded Zipf query stream, and
// the per-peer replication controllers ticked once mid-run under a
// synthetic clock. Phase A runs with the controllers idle; the tick
// rolls the load windows, reads the hot-term sketches, pushes the hot
// keys to extra replicas and advertises them; phase B replays the same
// stream against the now-replicated index.
func runLoadAdaptive(o LoadOptions) (*AdaptiveResult, error) {
	// Synthetic clock: leases and gauge windows advance only when the
	// experiment says so, keeping the run schedule-independent.
	var clockMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

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
			Seed:     o.Seed,
		},
	}
	cl, err := NewCluster(ClusterOptions{Peers: o.Peers, Cfg: cfg})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	defer func() {
		for _, p := range cl.Peers {
			p.Replicator().Stop()
		}
	}()

	docs := workload.DBLP{Seed: o.Seed, Records: o.Records}.Documents()
	if _, err := cl.PublishAll(docs, 4); err != nil {
		return nil, err
	}

	queries := make([]*pattern.Query, len(adaptiveQueries))
	for i, qs := range adaptiveQueries {
		queries[i] = pattern.MustParse(qs)
	}

	// Saturate the hot queries' home peers (see slowHomePenalty). The
	// hot head of the Zipf stream is the first loadQueries ranks.
	slowed := map[string]bool{}
	for _, qs := range loadQueries {
		for _, t := range pattern.MustParse(qs).Terms() {
			owner, err := cl.Nodes[0].Locate(t.Key())
			if err != nil {
				return nil, fmt.Errorf("experiments: locate hot home: %w", err)
			}
			if !slowed[owner.Addr] {
				slowed[owner.Addr] = true
				cl.Net.SetSlow(owner.Addr, slowHomePenalty)
			}
		}
	}
	defer func() {
		for a := range slowed {
			cl.Net.SetSlow(a, 0)
		}
	}()

	nq := 30 * o.Queries
	if nq < 40 {
		nq = 40
	}
	rng := rand.New(rand.NewSource(o.Seed + 0x5eed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(queries)-1))
	querier := cl.NonOwnerPeer(queries[0])

	// phase replays the seeded Zipf stream and reports the served-bytes
	// Gini over this phase's per-peer deltas and the per-query p99.
	phase := func(z *rand.Zipf) (float64, time.Duration, error) {
		before := make([]int64, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			before[i] = nd.Load().BytesServed()
		}
		durs := make([]time.Duration, 0, nq)
		for i := 0; i < nq; i++ {
			q := queries[z.Uint64()]
			start := time.Now()
			if _, err := querier.Query(q, kadop.QueryOptions{IndexOnly: true}); err != nil {
				return 0, 0, fmt.Errorf("experiments: adaptive query: %w", err)
			}
			durs = append(durs, time.Since(start))
		}
		deltas := make([]int64, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			deltas[i] = nd.Load().BytesServed() - before[i]
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return cluster.Gini(deltas), durs[len(durs)*99/100], nil
	}

	// Identical seeded streams for both phases: re-derive the Zipf
	// source so phase B replays phase A's query mix exactly.
	giniA, p99A, err := phase(zipf)
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
	for _, p := range cl.Peers {
		n, _, err := p.Replicator().Tick(ctx)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("experiments: controller tick: %w", err)
		}
		promoted += n
	}
	cancel()

	rngB := rand.New(rand.NewSource(o.Seed + 0x5eed))
	zipfB := rand.NewZipf(rngB, 1.3, 1, uint64(len(queries)-1))
	giniB, p99B, err := phase(zipfB)
	if err != nil {
		return nil, err
	}

	return &AdaptiveResult{
		GiniBefore: giniA, GiniAfter: giniB,
		P99Before: p99A, P99After: p99B,
		Promoted: promoted, Queries: nq,
	}, nil
}
