package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/replicate"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
)

// TestRunLoadAdaptive pins the load experiment's adaptive phase at
// smoke scale: the controller must promote and the serving-load Gini
// must strictly improve after it engages. These are the bounds `make
// gate-smoke` gates CI on, kept in the plain test suite so a
// regression fails `go test ./...` too. The p99 is reported, not
// asserted (see adaptiveResult.bounds).
func TestRunLoadAdaptive(t *testing.T) {
	res, err := runLoadAdaptive(Scale{Records: []int{120}, Peers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.bounds() {
		if !b.holds() {
			t.Errorf("bound failed: %v (p99 %v -> %v)", b, res.P99Before, res.P99After)
		}
	}
}

// TestAdaptiveChaosConvergence is the race-enabled chaos test of the
// closed loop: a replicated deployment runs the hot-term workload while
// documents keep being published concurrently and peers churn (graceful
// leaves and joins), with the replication controllers ticking under a
// synthetic clock throughout. It pins three properties:
//
//  1. Correctness is never traded for load: a query that reports a
//     complete result must bound the published corpus exactly — never
//     missing a pre-wave answer, never inventing one (stale promoted
//     copies are fenced by the advertisement count guard).
//  2. Convergence: after the churn settles, the hot term's list is held
//     in full by strictly more peers than the replication factor — the
//     controller established and maintained extra replicas through the
//     churn.
//  3. Demotion: once the hot traffic stops and the sketch decays, the
//     promotions drain and the extra copies are deleted again.
func TestAdaptiveChaosConvergence(t *testing.T) {
	const (
		peers    = 10
		stable   = 4 // first ids never churn: they publish and query
		baseDocs = 60
		waveDocs = 8
		waves    = 3
		seed     = 42
		replicaN = 3
	)

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

	dhtCfg := dht.Config{
		Replication: replicaN,
		Retry: dht.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
		RPCTimeout: 5 * time.Second,
		Seed:       seed,
	}
	cfg := kadop.Config{
		UseDPP: true,
		DPP:    dpp.Options{BlockSize: 1 << 20}, // inline lists: the hot-spot regime
		DHT:    dhtCfg,
		Replicate: replicate.Config{
			Enabled:  true,
			HotBytes: 1 << 10,
			Decay:    0.05, // steep aging so the cool-down phase demotes quickly
			Lease:    time.Hour,
			Now:      clock,
			Seed:     seed,
		},
	}
	cl, err := NewCluster(ClusterOptions{Peers: peers, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type member struct {
		node  *dht.Node
		peer  *kadop.Peer
		alive bool
	}
	members := make([]*member, 0, peers+waves)
	for i := range cl.Nodes {
		members = append(members, &member{node: cl.Nodes[i], peer: cl.Peers[i], alive: true})
	}
	var joinedStores []store.Store
	defer func() {
		for _, m := range members {
			if m.alive {
				m.peer.Replicator().Stop()
			}
		}
		for _, st := range joinedStores {
			st.Close()
		}
	}()

	// The corpus arrives in a churn-free base plus per-wave batches
	// published concurrently with queries and churn. The oracle is pure
	// local tree evaluation (pattern.MatchDocument), so it never depends
	// on the machinery under test.
	docs := workload.DBLP{Seed: seed, Records: 2 * (baseDocs + waves*waveDocs), RecordsPerDoc: 2}.Documents()
	if len(docs) < baseDocs+waves*waveDocs {
		t.Fatalf("bad fixture: %d documents", len(docs))
	}
	q := pattern.MustParse(Fig3Query)
	var expMu sync.Mutex
	expected := map[sid.DocKey]bool{}
	publish := func(p *kadop.Peer, d workload.GeneratedDoc) error {
		key, err := p.Publish(d.Doc, d.URI)
		if err != nil {
			return err
		}
		if len(pattern.MatchDocument(q, d.Doc, key)) > 0 {
			expMu.Lock()
			expected[key] = true
			expMu.Unlock()
		}
		return nil
	}
	snapshot := func() map[sid.DocKey]bool {
		expMu.Lock()
		defer expMu.Unlock()
		out := make(map[sid.DocKey]bool, len(expected))
		for k := range expected {
			out[k] = true
		}
		return out
	}
	for i := 0; i < baseDocs; i++ {
		if err := publish(cl.Peers[i%2], docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(snapshot()) == 0 {
		t.Fatal("bad fixture: oracle is empty")
	}

	querier := cl.Peers[stable-1]
	// boundsCheck verifies one complete result against the publication
	// bounds: every doc published before the query must answer, and no
	// answer may come from outside the corpus published so far.
	boundsCheck := func(t *testing.T, got []sid.DocKey, lower, upper map[sid.DocKey]bool, when string) {
		t.Helper()
		have := map[sid.DocKey]bool{}
		for _, d := range got {
			have[d] = true
			if !upper[d] {
				t.Fatalf("%s: query invented answer %v", when, d)
			}
		}
		for d := range lower {
			if !have[d] {
				t.Fatalf("%s: complete query dropped answer %v", when, d)
			}
		}
	}
	// tickAll runs one control pass on every live peer. Transient tick
	// errors are expected under churn (a push can race a departure); the
	// loop is self-healing, so the test logs them and pins convergence
	// on the state assertions instead.
	tickAll := func() int {
		promoted := 0
		for _, m := range members {
			if !m.alive {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			n, _, err := m.peer.Replicator().Tick(ctx)
			cancel()
			if err != nil {
				t.Logf("controller tick (tolerated under churn): %v", err)
			}
			promoted += n
		}
		return promoted
	}
	sweep := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, m := range members {
			if m.alive {
				m.node.RepairOnce(ctx)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed + 11))
	nextID := sid.PeerID(peers + 1)
	for w := 0; w < waves; w++ {
		lower := snapshot()
		var wg sync.WaitGroup
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < waveDocs; i++ {
				if err := publish(cl.Peers[2], docs[baseDocs+w*waveDocs+i]); err != nil {
					t.Errorf("wave %d publish: %v", w, err)
					return
				}
			}
		}(w)

		// Queries race the appends: a complete answer observed mid-wave
		// is bounded below by the pre-wave oracle; the upper bound is
		// checked after the wave joins (answers only ever grow).
		type observed struct{ docs []sid.DocKey }
		var raced []observed
		for i := 0; i < 6; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			r, err := querier.QueryContext(ctx, q, kadop.QueryOptions{AllowPartial: true})
			cancel()
			if err == nil && !r.Incomplete {
				have := map[sid.DocKey]bool{}
				for _, d := range r.Docs {
					have[d] = true
				}
				for d := range lower {
					if !have[d] {
						t.Fatalf("wave %d: complete query dropped pre-wave answer %v", w, d)
					}
				}
				raced = append(raced, observed{docs: r.Docs})
			}
			if i == 2 {
				advance(time.Second)
				tickAll()
			}
		}
		wg.Wait()
		upper := snapshot()
		for _, o := range raced {
			for _, d := range o.docs {
				if !upper[d] {
					t.Fatalf("wave %d: query invented answer %v", w, d)
				}
			}
		}

		// Churn between waves: one graceful leave among the churnable
		// members, one join, then a repair sweep to settle ownership.
		var churnable []*member
		for _, m := range members[stable:] {
			if m.alive {
				churnable = append(churnable, m)
			}
		}
		leaver := churnable[rng.Intn(len(churnable))]
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if _, err := leaver.peer.Leave(ctx); err != nil {
			t.Fatalf("wave %d leave: %v", w, err)
		}
		leaver.alive = false
		st := store.NewMem()
		nd, err := dht.NewNode(cl.Net.NewEndpoint(), st, dhtCfg)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		joinedStores = append(joinedStores, st)
		if err := nd.BootstrapContext(ctx, members[0].node.Self()); err != nil {
			cancel()
			t.Fatalf("wave %d join: %v", w, err)
		}
		nd.Lookup(nd.Self().ID)
		jp, err := kadop.NewPeer(nd, nextID, cfg)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		nextID++
		jp.Announce()
		nd.PullOwnedOnce(ctx)
		cancel()
		members = append(members, &member{node: nd, peer: jp, alive: true})
		sweep()

		// Settled: no concurrent publishes, churn repaired — a complete
		// answer must now match the oracle exactly.
		advance(time.Second)
		tickAll()
		sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
		r, err := querier.QueryContext(sctx, q, kadop.QueryOptions{AllowPartial: true})
		scancel()
		if err != nil {
			t.Fatalf("wave %d settled query: %v", w, err)
		}
		if r.Incomplete {
			t.Fatalf("wave %d settled query incomplete after repair", w)
		}
		exact := snapshot()
		boundsCheck(t, r.Docs, exact, exact, fmt.Sprintf("wave %d settled", w))
	}

	// Convergence: with the hot traffic still fresh, the hot term's full
	// list must be held by strictly more peers than the replication
	// factor — the controller's extra replicas survived the churn.
	sweep()
	advance(time.Second)
	if n := tickAll(); n == 0 {
		t.Fatal("no promotions on the final tick despite hot traffic")
	}
	hotTerm, full, holders := "", 0, 0
	for _, term := range q.Terms() {
		tk := term.Key()
		max, cnt := 0, 0
		for _, m := range members {
			if !m.alive {
				continue
			}
			c, err := m.node.Store().Count(tk)
			if err != nil {
				continue
			}
			if c > max {
				max, cnt = c, 1
			} else if c == max && c > 0 {
				cnt++
			}
		}
		if max > full {
			hotTerm, full, holders = tk, max, cnt
		}
	}
	if holders <= replicaN {
		t.Fatalf("hot term %q: %d full holders (count %d), want > replication factor %d",
			hotTerm, holders, full, replicaN)
	}

	// Cool-down: no hot traffic; the steep decay drags the sketch below
	// the demotion threshold within a few ticks and the extra copies are
	// revoked and deleted again.
	for i := 0; i < 4; i++ {
		advance(time.Second)
		tickAll()
	}
	livePromos := 0
	for _, m := range members {
		if m.alive {
			livePromos += m.peer.Replicator().Promoted()
		}
	}
	if livePromos != 0 {
		t.Fatalf("%d promotions still live after cool-down", livePromos)
	}
	coolHolders := 0
	for _, m := range members {
		if !m.alive {
			continue
		}
		if c, err := m.node.Store().Count(hotTerm); err == nil && c == full {
			coolHolders++
		}
	}
	if coolHolders >= holders {
		t.Fatalf("demotion removed no copies: %d full holders before, %d after", holders, coolHolders)
	}

	// And the index is still exactly right.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	r, err := querier.QueryContext(ctx, q, kadop.QueryOptions{AllowPartial: true})
	cancel()
	if err != nil || r.Incomplete {
		t.Fatalf("final query: err=%v incomplete=%v", err, r != nil && r.Incomplete)
	}
	exact := snapshot()
	boundsCheck(t, r.Docs, exact, exact, "final")
}
