package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
)

// ChurnOptions scale the churn emulation: a replicated deployment
// subjected to a seeded Poisson schedule of joins, graceful leaves and
// crashes, optionally through a lossy network, with the query workload
// and the repair machinery running throughout.
type ChurnOptions struct {
	// Records is the DBLP corpus size.
	Records int
	// Peers is the initial overlay size.
	Peers int
	// Stable is the number of peers (the first Stable ids) that never
	// churn: they publish the corpus, submit the queries, and anchor
	// the overlay the way long-lived peers anchor deployed DHTs.
	Stable int
	// Events is the number of churn events in the schedule.
	Events int
	// JoinRate, LeaveRate and CrashRate are the relative weights of the
	// three event kinds in the schedule (all default to 1).
	JoinRate, LeaveRate, CrashRate float64
	// DropProb is the message loss injected while the schedule runs.
	DropProb float64
	// RepairEvery runs a full repair sweep (RepairOnce on every live
	// member, RefreshOnce on the stable ones) every that many events,
	// standing in for the periodic loops of a wall-clock deployment.
	RepairEvery int
	Seed        int64
}

func (o ChurnOptions) defaults() ChurnOptions {
	if o.Records <= 0 {
		o.Records = 240
	}
	if o.Peers <= 0 {
		o.Peers = 200
	}
	if o.Stable <= 0 {
		o.Stable = 8
	}
	if o.Stable > o.Peers {
		o.Stable = o.Peers
	}
	if o.Events <= 0 {
		o.Events = 60
	}
	if o.JoinRate <= 0 && o.LeaveRate <= 0 && o.CrashRate <= 0 {
		o.JoinRate, o.LeaveRate, o.CrashRate = 1, 1, 1
	}
	if o.DropProb < 0 {
		o.DropProb = 0
	}
	if o.RepairEvery <= 0 {
		o.RepairEvery = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ChurnResult is the outcome of one churn emulation run.
type ChurnResult struct {
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

// RunChurn emulates churn the way the paper's robustness discussion
// frames it: an overlay of hundreds of peers holding a replicated
// index, with peers joining (and pulling the keys they become
// responsible for), leaving gracefully (handing their keys off) and
// crashing outright, while a stable core keeps publishing-side state
// and submits the query workload. The run reports query success under
// churn, whether graceful leaves lost any keys, and whether the index
// converged back to the churn-free oracle once the schedule ended.
func RunChurn(o ChurnOptions) (*ChurnResult, error) {
	o = o.defaults()
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
		Seed:         o.Seed,
	}
	cl, err := NewCluster(ClusterOptions{Peers: o.Peers, DHT: dhtCfg})
	if err != nil {
		return nil, err
	}
	members := make([]*churnMember, 0, o.Peers+o.Events)
	for i := range cl.Nodes {
		members = append(members, &churnMember{
			node: cl.Nodes[i], peer: cl.Peers[i], alive: true, stable: i < o.Stable,
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
	docs := workload.DBLP{Seed: o.Seed, Records: o.Records}.Documents()
	publishers := o.Stable
	if publishers > 4 {
		publishers = 4
	}
	if _, err := cl.PublishAll(docs, publishers); err != nil {
		return nil, err
	}
	oracle := map[string]int{}
	for _, m := range members {
		terms, err := m.node.Store().Terms()
		if err != nil {
			return nil, err
		}
		for _, t := range terms {
			if c, err := m.node.Store().Count(t); err == nil && c > oracle[t] {
				oracle[t] = c
			}
		}
	}
	q := pattern.MustParse(Fig3Query)
	querier := cl.Peers[o.Stable-1]
	base, err := querier.QueryContext(context.Background(), q, kadop.QueryOptions{AllowPartial: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: churn baseline query: %w", err)
	}
	baseDocs := sortedDocs(base.Docs)

	col := cl.Net.Collector
	col.Reset()
	cl.Net.SetFaults(dht.Faults{Seed: o.Seed, DropProb: o.DropProb})
	defer cl.Net.SetFaults(dht.Faults{})

	res := &ChurnResult{Peers: o.Peers, Stable: o.Stable, Events: o.Events, DropProb: o.DropProb}
	rng := rand.New(rand.NewSource(o.Seed + 7))
	nextID := sid.PeerID(o.Peers + 1)
	// leftBehind records, per term a leaver held, the largest copy any
	// leaver held: after quiesce the overlay must still serve at least
	// that many postings or the leave lost data.
	leftBehind := map[string]int{}
	total := o.JoinRate + o.LeaveRate + o.CrashRate

	churnable := func() []*churnMember {
		var out []*churnMember
		for _, m := range members {
			if m.alive && !m.stable {
				out = append(out, m)
			}
		}
		return out
	}
	sweep := func(ctx context.Context) {
		for _, m := range members {
			if !m.alive {
				continue
			}
			m.node.RepairOnce(ctx)
			if m.stable {
				m.node.RefreshOnce(ctx, time.Second)
			}
		}
	}

	for e := 0; e < o.Events; e++ {
		// Poisson schedule: exponential virtual gaps (reported, not
		// slept — the simulated network has no propagation delay to
		// wait out).
		res.VirtualTime += time.Duration(rng.ExpFloat64() * float64(2*time.Second))
		pick := rng.Float64() * total
		cands := churnable()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		switch {
		case pick < o.JoinRate || len(cands) == 0:
			nd, err := dht.NewNode(cl.Net.NewEndpoint(), store.NewMem(), dhtCfg)
			if err != nil {
				cancel()
				return nil, err
			}
			if err := nd.BootstrapContext(ctx, members[0].node.Self()); err != nil {
				nd.Close()
				cancel()
				return nil, fmt.Errorf("experiments: churn join: %w", err)
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
		case pick < o.JoinRate+o.LeaveRate:
			m := cands[rng.Intn(len(cands))]
			terms, _ := m.node.Store().Terms()
			for _, t := range terms {
				if c, err := m.node.Store().Count(t); err == nil && c > leftBehind[t] {
					leftBehind[t] = c
				}
			}
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

		qctx, qcancel := context.WithTimeout(context.Background(), 60*time.Second)
		r, qerr := querier.QueryContext(qctx, q, kadop.QueryOptions{AllowPartial: true})
		qcancel()
		res.QueriesRun++
		if qerr == nil {
			res.QueriesOK++
			if !r.Incomplete && docsEqual(sortedDocs(r.Docs), baseDocs) {
				res.QueriesExact++
			}
		}
		res.RepairBytesSeries = append(res.RepairBytesSeries, col.Bytes(metrics.Repair))

		if (e+1)%o.RepairEvery == 0 {
			sctx, scancel := context.WithTimeout(context.Background(), 120*time.Second)
			sweep(sctx)
			scancel()
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
	for round := 0; round < 15; round++ {
		res.QuiesceRounds++
		pushed := 0
		qctx, qcancel := context.WithTimeout(context.Background(), 120*time.Second)
		for _, m := range members {
			if !m.alive {
				continue
			}
			n, _ := m.node.RepairOnce(qctx)
			pushed += n
		}
		qcancel()
		if pushed == 0 {
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

func sortedDocs(ds []sid.DocKey) []sid.DocKey {
	out := append([]sid.DocKey(nil), ds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

func docsEqual(a, b []sid.DocKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Format renders the churn report.
func (r *ChurnResult) Format() string {
	pct := func(n, of int) string {
		if of == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(of))
	}
	out := fmt.Sprintf("Churn — %d peers (%d stable), %d events over %s virtual, %.0f%% loss\n",
		r.Peers, r.Stable, r.Events, r.VirtualTime.Round(time.Second), r.DropProb*100)
	out += table(
		[]string{"joins", "leaves", "crashes", "alive-end", "queries-ok", "queries-exact", "keys-moved", "keys-lost"},
		[][]string{{
			fmt.Sprintf("%d", r.Joins), fmt.Sprintf("%d", r.Leaves), fmt.Sprintf("%d", r.Crashes),
			fmt.Sprintf("%d", r.AliveEnd),
			fmt.Sprintf("%d/%d (%s)", r.QueriesOK, r.QueriesRun, pct(r.QueriesOK, r.QueriesRun)),
			fmt.Sprintf("%d/%d", r.QueriesExact, r.QueriesRun),
			fmt.Sprintf("%d", r.LeaveKeysMoved), fmt.Sprintf("%d", r.LeaveKeysLost),
		}},
	)
	out += fmt.Sprintf("\nConvergence after quiesce (%d repair rounds): %d/%d oracle terms at full count (%s)\n",
		r.QuiesceRounds, r.FinalTermsComplete, r.FinalTermsTotal, pct(r.FinalTermsComplete, r.FinalTermsTotal))
	out += "\nRepair machinery\n" + table(
		[]string{"pushes", "pulls", "handoffs", "probes", "probe-fail", "evictions", "refreshes", "repair(MB)"},
		[][]string{{
			fmt.Sprintf("%d", r.RepairPushes), fmt.Sprintf("%d", r.ResyncPulls),
			fmt.Sprintf("%d", r.Handoffs), fmt.Sprintf("%d", r.Probes),
			fmt.Sprintf("%d", r.FailedProbes), fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%d", r.Refreshes), mb(r.RepairBytes),
		}},
	)
	if n := len(r.RepairBytesSeries); n >= 4 {
		out += "\nRepair traffic over the schedule (cumulative MB at quartiles)\n"
		out += fmt.Sprintf("  25%%: %s  50%%: %s  75%%: %s  100%%: %s\n",
			mb(r.RepairBytesSeries[n/4]), mb(r.RepairBytesSeries[n/2]),
			mb(r.RepairBytesSeries[3*n/4]), mb(r.RepairBytesSeries[n-1]))
	}
	return out
}
