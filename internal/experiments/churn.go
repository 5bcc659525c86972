package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// The churn schedule: the first churnStable peers never churn (they
// publish the corpus, submit the queries and anchor the overlay, the
// way long-lived peers anchor deployed DHTs); joins, graceful leaves
// and crashes are equally likely.
const churnStable = 6

// churnResult is the outcome of one churn emulation run.
type churnResult struct {
	Peers, Stable, Events  int
	Joins, Leaves, Crashes int
	AliveEnd               int
	DropProb               float64
	VirtualTime            time.Duration // schedule time (Poisson gaps, not slept)

	QueriesRun, QueriesOK, QueriesExact int

	LeaveKeysMoved int // keys confirmed on a remote replica at leave time
	LeaveKeysLost  int // keys a leaver held that the overlay later lost

	FinalTermsTotal    int // oracle terms checked after quiesce
	FinalTermsComplete int // of those, readable at full pre-churn count
	QuiesceRounds      int

	RepairPushes, ResyncPulls int64
	Handoffs                  int64
	Probes, FailedProbes      int64
	Evictions, Refreshes      int64
	RepairBytes               int64
	// RepairBytesSeries samples cumulative repair traffic after each
	// event, so runs can plot repair cost over the schedule.
	RepairBytesSeries []int64
}

type churnMember struct {
	node   *dht.Node
	peer   *kadop.Peer
	alive  bool
	stable bool
}

// runChurn emulates churn the way the paper's robustness discussion
// frames it: an overlay of hundreds of peers holding a replicated
// index, with peers joining (and pulling the keys they become
// responsible for), leaving gracefully (handing their keys off) and
// crashing outright, while a stable core keeps publishing-side state
// and submits the query workload. The run reports query success under
// churn, whether graceful leaves lost any keys, and whether the index
// converged back to the churn-free oracle once the schedule ended.
// The schedule has 10 + s.Peers/4 events, runs through a network that
// drops messages with probability drop, and runs a full repair sweep
// (RepairOnce on every live member, RefreshOnce on the stable ones)
// every repairEvery events, standing in for the periodic loops of a
// wall-clock deployment.
func runChurn(s Scale, drop float64, repairEvery int) (*churnResult, error) {
	events, stable := 10+s.Peers/4, min(churnStable, s.Peers)
	dhtCfg := dht.Config{
		Replication: 3,
		// Backoffs stay tiny: the simulated network fails dead-endpoint
		// calls instantly, so large backoffs would only stretch the
		// wall-clock of sweeps over a churned overlay.
		Retry: dht.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
		RPCTimeout:   5 * time.Second,
		ProbeTimeout: 2 * time.Second,
		Seed:         s.Seed,
	}
	cl, err := NewCluster(ClusterOptions{Peers: s.Peers, Cfg: kadop.Config{DHT: dhtCfg}})
	if err != nil {
		return nil, err
	}
	members := make([]*churnMember, 0, s.Peers+events)
	for i := range cl.Nodes {
		members = append(members, &churnMember{
			node: cl.Nodes[i], peer: cl.Peers[i], alive: true, stable: i < stable,
		})
	}
	defer func() {
		for _, m := range members {
			if m.alive {
				m.node.Close()
			}
			m.node.Store().Close()
		}
		cl.Close()
	}()

	// Publish churn-free and capture the oracle: the full posting count
	// of every term (the max across replicas is the complete copy) and
	// the exact answer of the probe query.
	if _, err := cl.PublishAll(s.dblp(s.records()), 4, 1); err != nil {
		return nil, err
	}
	oracle := map[string]int{}
	for _, m := range members {
		if err := maxCounts(oracle, m.node.Store()); err != nil {
			return nil, err
		}
	}
	q := pattern.MustParse(Fig3Query)
	querier := cl.Peers[stable-1]
	base, err := querier.QueryContext(context.Background(), q, kadop.QueryOptions{AllowPartial: true})
	if err != nil {
		return nil, fmt.Errorf("baseline query: %w", err)
	}
	baseDocs := sortedDocs(base.Docs)

	col := cl.Net.Collector
	col.Reset()
	cl.Net.SetFaults(dht.Faults{Seed: s.Seed, DropProb: drop})

	res := &churnResult{Peers: s.Peers, Stable: stable, Events: events, DropProb: drop}
	rng := rand.New(rand.NewSource(s.Seed + 7))
	nextID := sid.PeerID(s.Peers + 1)
	// leftBehind records, per term a leaver held, the largest copy any
	// leaver held: after quiesce the overlay must still serve at least
	// that many postings or the leave lost data.
	leftBehind := map[string]int{}

	churnable := func() []*churnMember {
		var out []*churnMember
		for _, m := range members {
			if m.alive && !m.stable {
				out = append(out, m)
			}
		}
		return out
	}
	// sweep runs RepairOnce on every live member (and RefreshOnce on
	// the stable ones if refresh is set) and returns the keys pushed.
	sweep := func(refresh bool) (pushed int) {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		for _, m := range members {
			if m.alive {
				n, _ := m.node.RepairOnce(ctx)
				pushed += n
				if refresh && m.stable {
					m.node.RefreshOnce(ctx, time.Second)
				}
			}
		}
		return pushed
	}

	for e := 0; e < events; e++ {
		// Poisson schedule: exponential virtual gaps (reported, not
		// slept — the simulated network has no propagation delay to
		// wait out).
		res.VirtualTime += time.Duration(rng.ExpFloat64() * float64(2*time.Second))
		pick := rng.Float64() * 3
		cands := churnable()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		switch {
		case pick < 1 || len(cands) == 0:
			nd, err := dht.NewNode(cl.Net.NewEndpoint(), store.NewMem(), dhtCfg)
			if err != nil {
				cancel()
				return nil, err
			}
			if err := nd.BootstrapContext(ctx, members[0].node.Self()); err != nil {
				nd.Close()
				cancel()
				return nil, fmt.Errorf("join: %w", err)
			}
			nd.LookupContext(ctx, nd.Self().ID)
			p, err := kadop.NewPeer(nd, nextID, kadop.Config{DHT: dhtCfg})
			if err != nil {
				nd.Close()
				cancel()
				return nil, err
			}
			nextID++
			p.Announce()
			// The joiner pulls the keys it is now among the owners of,
			// so queries routed to it do not come back empty before the
			// owners' push loops notice it.
			nd.PullOwnedOnce(ctx)
			members = append(members, &churnMember{node: nd, peer: p, alive: true})
			res.Joins++
		case pick < 2:
			m := cands[rng.Intn(len(cands))]
			maxCounts(leftBehind, m.node.Store()) // a store that cannot list its terms leaves nothing to check
			moved, _ := m.peer.Leave(ctx)
			m.alive = false
			res.LeaveKeysMoved += moved
			res.Leaves++
		default:
			m := cands[rng.Intn(len(cands))]
			m.node.Close()
			m.alive = false
			res.Crashes++
		}
		cancel()

		r, qerr := query(querier, q, kadop.QueryOptions{AllowPartial: true})
		res.QueriesRun++
		if qerr == nil {
			res.QueriesOK++
			if !r.Incomplete && slices.Equal(sortedDocs(r.Docs), baseDocs) {
				res.QueriesExact++
			}
		}
		res.RepairBytesSeries = append(res.RepairBytesSeries, col.Bytes(metrics.Repair))

		if (e+1)%repairEvery == 0 {
			sweep(true)
		}
	}

	// Quiesce: lift the faults, re-register the stable peers' directory
	// entries, then repair until a full sweep pushes nothing.
	cl.Net.SetFaults(dht.Faults{})
	for _, m := range members {
		if m.alive && m.stable {
			m.peer.Reannounce()
		}
	}
	for res.QuiesceRounds < 15 {
		res.QuiesceRounds++
		if sweep(false) == 0 {
			break
		}
	}

	// Completeness against the churn-free oracle, read through the
	// overlay (merged across reachable replicas) from a stable member.
	reader := members[0].node
	fctx, fcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer fcancel()
	for term, want := range oracle {
		res.FinalTermsTotal++
		l, err := reader.Get(fctx, term)
		if err == nil && len(l) >= want {
			res.FinalTermsComplete++
		}
	}
	for term, want := range leftBehind {
		l, err := reader.Get(fctx, term)
		if err != nil || len(l) < want {
			res.LeaveKeysLost++
		}
	}

	for _, m := range members {
		if m.alive {
			res.AliveEnd++
		}
	}
	res.RepairPushes = col.Events(metrics.EventRepair)
	res.ResyncPulls = col.Events(metrics.EventResync)
	res.Handoffs = col.Events(metrics.EventHandoff)
	res.Probes = col.Events(metrics.EventProbe)
	res.FailedProbes = col.Events(metrics.EventFailedProbe)
	res.Evictions = col.Events(metrics.EventEviction)
	res.Refreshes = col.Events(metrics.EventRefresh)
	res.RepairBytes = col.Bytes(metrics.Repair)
	return res, nil
}

// maxCounts raises counts[t] to st's posting count for every term t
// st holds.
func maxCounts(counts map[string]int, st store.Store) error {
	terms, err := st.Terms()
	for _, t := range terms {
		if c, err := st.Count(t); err == nil {
			counts[t] = max(counts[t], c)
		}
	}
	return err
}

func sortedDocs(ds []sid.DocKey) []sid.DocKey {
	out := slices.Clone(ds)
	slices.SortFunc(out, func(a, b sid.DocKey) int { return cmp.Or(cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Doc, b.Doc)) })
	return out
}

func (r *churnResult) report() ([]section, []bound) {
	pct := func(n, of int) string {
		if of == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(of))
	}
	secs := []section{
		{fmt.Sprintf("Churn — %d peers (%d stable), %d events over %s virtual, %.0f%% loss",
			r.Peers, r.Stable, r.Events, r.VirtualTime.Round(time.Second), r.DropProb*100),
			[]string{"joins", "leaves", "crashes", "alive-end", "queries-ok", "queries-exact", "keys-moved", "keys-lost"},
			[][]string{{itoa(r.Joins), itoa(r.Leaves), itoa(r.Crashes), itoa(r.AliveEnd),
				fmt.Sprintf("%d/%d (%s)", r.QueriesOK, r.QueriesRun, pct(r.QueriesOK, r.QueriesRun)),
				fmt.Sprintf("%d/%d", r.QueriesExact, r.QueriesRun), itoa(r.LeaveKeysMoved), itoa(r.LeaveKeysLost)}}},
		{title: fmt.Sprintf("\nConvergence after quiesce (%d repair rounds): %d/%d oracle terms at full count (%s)",
			r.QuiesceRounds, r.FinalTermsComplete, r.FinalTermsTotal, pct(r.FinalTermsComplete, r.FinalTermsTotal))},
		{"Repair machinery",
			[]string{"pushes", "pulls", "handoffs", "probes", "probe-fail", "evictions", "refreshes", "repair(MB)"},
			[][]string{{itoa(r.RepairPushes), itoa(r.ResyncPulls), itoa(r.Handoffs), itoa(r.Probes),
				itoa(r.FailedProbes), itoa(r.Evictions), itoa(r.Refreshes), mb(r.RepairBytes)}}},
	}
	if n := len(r.RepairBytesSeries); n >= 4 {
		secs = append(secs, section{title: fmt.Sprintf("\nRepair traffic over the schedule (cumulative MB at quartiles)\n  25%%: %s  50%%: %s  75%%: %s  100%%: %s",
			mb(r.RepairBytesSeries[n/4]), mb(r.RepairBytesSeries[n/2]), mb(r.RepairBytesSeries[3*n/4]), mb(r.RepairBytesSeries[n-1]))})
	}
	// Queries keep succeeding through the schedule, graceful leaves hand
	// their keys off and lose none, and once quiesced the index is back
	// at the churn-free oracle, which must not be empty.
	return secs, []bound{
		{"queries ok under churn", float64(r.QueriesOK), "==", float64(r.QueriesRun)},
		{"keys lost by graceful leaves", float64(r.LeaveKeysLost), "==", 0},
		{fmt.Sprintf("handoffs for %d leaves", r.Leaves), float64(r.Handoffs), ">=", float64(min(r.Leaves, 1))},
		{"oracle terms at full count after quiesce", float64(r.FinalTermsComplete), "==", float64(r.FinalTermsTotal)},
		{"oracle terms", float64(r.FinalTermsTotal), ">=", 1},
	}
}
